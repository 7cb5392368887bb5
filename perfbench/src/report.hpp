#pragma once
// Result assembly for the repository benchmark: named metrics with units,
// operation/failure counts, the host fingerprint, and the one-line JSON the
// benchmark prints last.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the calling thread, in seconds. Linux's steal-time
/// accounting leaves out the time a hypervisor ran other guests on this
/// vCPU, so a single-threaded phase timed this way does not move with other
/// tenants' load the way its wall time does.
[[nodiscard]] double thread_cpu_s();
/// CPU time of every thread of the process, in seconds (same accounting).
[[nodiscard]] double process_cpu_s();

/// Moves the calling thread round robin over the CPUs it may run on, one
/// CPU per repetition, and restores its affinity when destroyed. On a shared
/// host each vCPU's speed depends on what other tenants run beside it, and
/// a thread left alone stays on one vCPU for the whole run; rotating makes
/// every run sample every CPU. Threads the caller starts while pinned
/// inherit the pin.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pin the calling thread to the next CPU (no-op with fewer than two).
  void next();

 private:
  std::vector<int> cpus_;  ///< the starting affinity set
  std::size_t next_ = 0;
};

/// ShardedEngine workers of the timed sim runs. On a shared 4-vCPU host,
/// N-worker sharded runs of one seed spread 28-98% run to run (IQR/median)
/// against at most 3% at one worker; the traced run replays at N workers.
inline constexpr int kEngineWorkers = 1;

/// Options shared by every workload (parsed from the command line).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< length of the measured phase
  bool trace = false;      ///< per-layer run instead of the end-to-end run
  bool smoke = false;      ///< tiny sizes, one repetition: for the self-test
  bool force_mismatch = false;  ///< corrupt one expected output (self-test)
  int workers = 1;         ///< N = min(4, nproc): serve pool, N-worker replays
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `failed` counts failed output checks; a
/// run is correct iff none failed.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines printed before the JSON

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Record one output check; a false `ok` is one failed operation.
  void check(bool ok, const std::string& what);
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// CPU model, nproc, compiler, build type and worker count as a JSON object.
[[nodiscard]] std::string host_fingerprint(const RunOptions& opt);
/// Process peak resident set size in MB (getrusage).
[[nodiscard]] double peak_rss_mb();
/// Heap allocations made by the calling thread so far (counting operator new).
[[nodiscard]] std::uint64_t thread_allocs();

/// num / den, 0 when den is 0.
[[nodiscard]] inline double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}
/// Median of `v` (v is reordered); 0 for an empty vector.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile of `v` (v is reordered); 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Indices of the fastest quarter (at least one) of repeats that took
/// `times`, fastest first.
[[nodiscard]] std::vector<std::size_t> fastest_quarter(const std::vector<double>& times);
/// Median of the fastest quarter of `times` (see fastest_quarter).
[[nodiscard]] double fastest_quarter_median(const std::vector<double>& times);
/// Element-wise minimum over repeats of the same work: `acc[i] = min(acc[i],
/// v[i])`; an empty `acc` takes `v`. Both must have the same length.
void fold_min(std::vector<double>& acc, const std::vector<double>& v);

/// Print the notes, the metric table and the fingerprint, then the result
/// JSON as the last line of stdout.
void emit(const Result& r, const RunOptions& opt);

}  // namespace perfbench
