// urllc_bench: the repository benchmark program.
//
//   urllc_bench --workload city_1m|stack_mix|serve_mix --seed N --seconds S
//               --trace 0|1 [--smoke] [--force-mismatch]
//
// `--trace 0` prints every end-to-end metric, `--trace 1` every per-layer
// metric plus trace.overhead_frac. The last stdout line is the result JSON:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exits 0 iff every output check passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "urllc_bench: %s\n"
               "usage: urllc_bench --workload city_1m|stack_mix|serve_mix --seed N "
               "--seconds S --trace 0|1 [--smoke] [--force-mismatch]\n",
               why);
  std::exit(2);
}

perfbench::RunOptions parse(int argc, char** argv) {
  perfbench::RunOptions o;
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  o.workers = static_cast<int>(std::min(4U, hw));
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--force-mismatch") {
      o.force_mismatch = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!(o.seconds >= 0.0)) usage("--seconds must be >= 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunOptions opt = parse(argc, argv);
  perfbench::Result r;
  if (opt.workload == "city_1m") {
    r = perfbench::run_city(opt);
  } else if (opt.workload == "stack_mix") {
    r = perfbench::run_stack(opt);
  } else if (opt.workload == "serve_mix") {
    r = perfbench::run_serve(opt);
  } else {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  for (const perfbench::Metric& m : r.metrics) {
    r.check(std::isfinite(m.value), m.name + " is not a finite number");
  }
  std::printf("workload %s, seed %llu, %s run\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? "traced" : "end-to-end");
  perfbench::emit(r, opt);
  return r.failed == 0 ? 0 : 1;
}
