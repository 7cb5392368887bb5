#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

// ---------------------------------------------------------------------------
// Counting allocator: per-thread tallies, so the datapath probe can report
// heap allocations per packet without cross-thread contention elsewhere.

namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// The CPU brand string from cpuid (no file reads), "unknown" elsewhere.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i) {
      unsigned* r = &regs[4 * i];
      __get_cpuid(0x80000002U + i, &r[0], &r[1], &r[2], &r[3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    if (!s.empty()) return s;
  }
#endif
  return "unknown";
}

double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  if (failed <= 20) note("CHECK FAILED: " + what);
}

std::string host_fingerprint(const RunOptions& opt) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"cpu\":\"%s\",\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"workers\":%d,\"engine_workers\":%d}",
                json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
                json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE, opt.workers,
                kEngineWorkers);
  return buf;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t thread_allocs() { return t_allocs; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto r = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(r, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::vector<std::size_t> fastest_quarter(const std::vector<double>& times) {
  std::vector<std::size_t> idx(times.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(),
                   [&times](std::size_t a, std::size_t b) { return times[a] < times[b]; });
  idx.resize(std::min(idx.size(), std::max<std::size_t>(1, idx.size() / 4)));
  return idx;
}

double fastest_quarter_median(const std::vector<double>& times) {
  std::vector<double> q;
  for (const std::size_t i : fastest_quarter(times)) q.push_back(times[i]);
  return median(std::move(q));
}

void fold_min(std::vector<double>& acc, const std::vector<double>& v) {
  if (acc.empty()) {
    acc = v;
    return;
  }
  for (std::size_t i = 0; i < acc.size() && i < v.size(); ++i) acc[i] = std::min(acc[i], v[i]);
}

void emit(const Result& r, const RunOptions& opt) {
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("fingerprint: %s\n", host_fingerprint(opt).c_str());

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(r.attempted, 1));
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + json_escape(m.name) + "\": {\"value\": " + num + ", \"unit\": \"" +
            json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
