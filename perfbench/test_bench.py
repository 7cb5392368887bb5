#!/usr/bin/env python3
"""Self-test of the repository benchmark (smoke sizes, about a minute).

    python3 perfbench/test_bench.py

Checks, for every workload in BENCHMARK.json and for city_1m:
  * the end-to-end run prints exactly the end_to_end metrics, each with the
    unit BENCHMARK.json gives it, and the traced run exactly the per_layer
    metrics, all as finite numbers, with "correct": true and exit code 0;
  * a forced output mismatch (--force-mismatch) makes the run incorrect:
    "correct": false, failed >= 1 and a non-zero exit code.
And that a copy holding only BENCHMARK.json and perfbench/ (no library
sources) exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args, cwd=ROOT):
    p = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, p


def expect(ok, what, failures):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_metrics(result, spec, what, failures):
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
    expect(not missing and not extra,
           f"{what}: metric names match BENCHMARK.json (missing {missing}, extra {extra})",
           failures)
    for name, unit in want.items():
        if name not in got:
            continue
        m = got[name]
        expect(m.get("unit") == unit, f"{what}: {name} has unit {unit}", failures)
        expect(isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"]),
               f"{what}: {name} is a finite number", failures)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    # city_1m runs by hand only (see README.md), so it is not in BENCHMARK.json.
    for w in [x["name"] for x in bench["workloads"]] + ["city_1m"]:
        for trace, spec in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            what = f"{w} --trace {trace}"
            code, result, p = run(["--workload", w, "--seed", "7", "--seconds", "0",
                                   "--trace", trace, "--smoke"])
            expect(code == 0 and result is not None, f"{what}: exits 0 with a result", failures)
            if result is None:
                sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result has exactly the four keys", failures)
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: correct, nothing failed", failures)
            check_metrics(result, spec, what, failures)

        code, result, _ = run(["--workload", w, "--seed", "7", "--seconds", "0", "--trace", "0",
                               "--smoke", "--force-mismatch"])
        refused = (code != 0 and result is not None and result["correct"] is False
                   and result["failed"] >= 1)
        expect(refused, f"{w}: a forced output mismatch fails the check", failures)

    # A directory with only BENCHMARK.json and perfbench/ cannot build.
    build_base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_base):
        build_base = os.path.join(ROOT, build_base)
    os.makedirs(build_base, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=build_base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stack_mix", "--seed",
                            "1", "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
                           capture_output=True, text=True, timeout=180)
        expect(p.returncode != 0 and '"correct"' not in p.stdout,
               "bare copy without src/: non-zero exit, no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
