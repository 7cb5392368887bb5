#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload city_1m|stack_mix|serve_mix \\
        --seed N --seconds S --trace 0|1 [--smoke] [--force-mismatch]

Configures and builds perfbench/ (its own CMake project, compiled against the
library sources in src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the benchmark binary with the given
arguments. Build output goes to stderr; the binary's stdout passes through
unchanged, so its last line is the result JSON. The exit code is the
binary's, or non-zero without a result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "e2e_system.cpp")):
        print("perfbench: library sources (src/) not found next to perfbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(out, "urllc_bench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
