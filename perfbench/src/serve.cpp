// serve_mix: a closed-loop client of FeasibilityService.
//
// One pass builds a fresh service and the seeded query stream (setup_s),
// then asks the stream one query at a time, waiting for each answer. The
// stream mixes repeats of a working set (analytic cache hits), unseen
// patterns/models (analytic misses), sim-tail queries (a cold ask, an
// identical re-ask and a p50 follow-up, both tail-cache hits) and
// query_batch sweeps. Every pass replays the same stream; every verdict is
// checked against offline analyze_worst_case, every re-asked tail against
// its cold answer, and every tail against the same tail of pass 0.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/feasibility.hpp"
#include "serve/feasibility_service.hpp"
#include "sim/runner.hpp"
#include "tdd/common_config.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace u5g;

namespace {

enum class Kind { Repeat, Unseen, TailCold, TailRepeat, TailP50, Batch };
constexpr int kKinds = 6;
constexpr const char* kKindNames[kKinds] = {"repeat",     "unseen",   "tail-cold",
                                            "tail-reask", "tail-p50", "batch"};

struct Item {
  Kind kind = Kind::Repeat;
  std::uint32_t index = 0;  ///< into Stream::queries, or Stream::batches for Batch
};

struct Stream {
  std::vector<FeasibilityQuery> queries;
  std::vector<std::vector<std::uint32_t>> batches;  ///< query indices per sweep
  std::vector<Item> items;
  std::size_t query_count = 0;  ///< answers one pass produces (batch members count)
};

const std::vector<std::shared_ptr<const DuplexConfig>>& patterns() {
  static const std::vector<std::shared_ptr<const DuplexConfig>> all = [] {
    std::vector<std::shared_ptr<const DuplexConfig>> v;
    for (auto& c : table1_configs()) v.emplace_back(std::move(c));
    v.push_back(std::make_shared<TddCommonConfig>(TddCommonConfig::dddu(kMu1)));
    v.push_back(std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu3)));
    v.push_back(std::make_shared<TddCommonConfig>(TddCommonConfig::du(kMu3)));
    return v;
  }();
  return all;
}

constexpr AccessMode kModes[] = {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl,
                                 AccessMode::Downlink};

}  // namespace

/// bench_serve's repeated-sweep universe.
std::vector<FeasibilityQuery> serve_working_set() {
  LatencyModelParams software;
  software.sender_processing = Nanos{100'000};
  software.receiver_processing = Nanos{150'000};
  software.radio_tx = Nanos{50'000};
  software.radio_rx = Nanos{50'000};
  std::vector<FeasibilityQuery> ws;
  const auto& pats = patterns();
  for (std::size_t i = 0; i < 5; ++i) {
    for (const AccessMode m : kModes) {
      for (const Nanos d : {Nanos{250'000}, Nanos{500'000}, Nanos{1'000'000}, Nanos{2'000'000}}) {
        for (const LatencyModelParams& p : {LatencyModelParams{}, software}) {
          ws.push_back(FeasibilityQuery::analytic(pats[i], m, d, p));
        }
      }
    }
  }
  return ws;
}

namespace {

/// A query no earlier one in the pass asked: pattern and mode cycle with
/// `serial` (so every seed pays the same analysis mix), the model's
/// processing times are seeded and unique to `serial`.
FeasibilityQuery unseen_query(Rng& rng, std::uint32_t serial) {
  const auto& pats = patterns();
  LatencyModelParams p;
  p.sender_processing = Nanos{10'000 + 37 * static_cast<std::int64_t>(serial)};
  p.receiver_processing = Nanos{static_cast<std::int64_t>(rng.uniform_int(200'000))};
  p.radio_tx = Nanos{static_cast<std::int64_t>(rng.uniform_int(100'000))};
  p.data_tx_symbols = 1 + static_cast<int>(serial / pats.size() % 4);
  return FeasibilityQuery::analytic(pats[serial % pats.size()],
                                    kModes[serial / (pats.size() * 4) % 3],
                                    kUrllcOneWayDeadline, p);
}

/// Fixed counts per pass, so every seed offers the same mix; the seed picks
/// the queries and their order. Cold tails and batch members together stay
/// well under 1% of the answers, so query_p99_us falls inside the analytic
/// misses (CPU work) rather than on the edge of two populations.
struct Mix {
  int repeats, unseen, tails, batches;
};
constexpr Mix kFullMix{11'300, 600, 40, 2};
constexpr Mix kSmokeMix{500, 30, 3, 2};

Stream build_stream(std::uint64_t seed, bool smoke) {
  const Mix mix = smoke ? kSmokeMix : kFullMix;
  Stream s;
  Rng rng(splitmix64(seed ^ 0x5E7E));
  s.queries = serve_working_set();
  const auto ws = static_cast<std::uint32_t>(s.queries.size());
  std::uint32_t serial = 0;      // unseen queries made so far
  std::uint64_t tails_made = 0;
  const auto add_query = [&s](FeasibilityQuery q) {
    s.queries.push_back(std::move(q));
    return static_cast<std::uint32_t>(s.queries.size() - 1);
  };
  // Units are shuffled, then expanded: a tail's three asks stay adjacent.
  std::vector<Kind> units;
  units.insert(units.end(), static_cast<std::size_t>(mix.repeats), Kind::Repeat);
  units.insert(units.end(), static_cast<std::size_t>(mix.unseen), Kind::Unseen);
  units.insert(units.end(), static_cast<std::size_t>(mix.tails), Kind::TailCold);
  units.insert(units.end(), static_cast<std::size_t>(mix.batches), Kind::Batch);
  for (std::size_t i = units.size() - 1; i > 0; --i) {
    std::swap(units[i], units[rng.uniform_int(i + 1)]);
  }
  for (const Kind k : units) {
    switch (k) {
      case Kind::Repeat:  // a repeat of the working set: an analytic hit
        s.items.push_back({k, static_cast<std::uint32_t>(rng.uniform_int(ws))});
        ++s.query_count;
        break;
      case Kind::Unseen:  // an analytic miss
        s.items.push_back({k, add_query(unseen_query(rng, serial++))});
        ++s.query_count;
        break;
      case Kind::TailCold: {  // a fresh grant-free sim tail, re-asked, then asked for its p50
        const StackConfig cfg =
            StackConfig::urllc_design(splitmix64(seed ^ (0x7A11ULL + tails_made++)));
        const AccessMode m = AccessMode::GrantFreeUl;
        const std::uint32_t ci = add_query(
            FeasibilityQuery::with_tail(cfg, m, kUrllcOneWayDeadline, 4, 64, 0.99));
        s.items.push_back({Kind::TailCold, ci});
        s.items.push_back({Kind::TailRepeat, ci});
        s.items.push_back({Kind::TailP50, add_query(FeasibilityQuery::with_tail(
                                              cfg, m, Nanos{1'000'000}, 4, 64, 0.5))});
        s.query_count += 3;
        break;
      }
      default: {  // a design-space sweep: 14 working-set points and 2 unseen ones
        std::vector<std::uint32_t> b;
        for (int i = 0; i < 14; ++i) b.push_back(static_cast<std::uint32_t>(rng.uniform_int(ws)));
        for (int i = 0; i < 2; ++i) b.push_back(add_query(unseen_query(rng, serial++)));
        s.items.push_back({Kind::Batch, static_cast<std::uint32_t>(s.batches.size())});
        s.query_count += b.size();
        s.batches.push_back(std::move(b));
      }
    }
  }
  return s;
}

bool same_worst_case(const WorstCaseResult& a, const WorstCaseResult& b) {
  return a.worst == b.worst && a.best == b.best && a.mean == b.mean &&
         a.worst_arrival_offset == b.worst_arrival_offset && a.feasible == b.feasible;
}

bool same_tail(const SimTailResult& a, const SimTailResult& b) {
  return std::memcmp(&a.quantile_latency_us, &b.quantile_latency_us, sizeof(double)) == 0 &&
         a.quantile == b.quantile && a.meets_deadline == b.meets_deadline &&
         a.reliability.delivered == b.reliability.delivered &&
         a.reliability.offered == b.reliability.offered &&
         std::memcmp(&a.reliability.fraction_within, &b.reliability.fraction_within,
                     sizeof(double)) == 0;
}

/// Offline answers, computed outside the timed phase and kept across passes.
class Oracle {
 public:
  const WorstCaseResult& expected(const Stream& s, std::uint32_t i) {
    auto it = memo_.find(i);
    if (it == memo_.end()) {
      const FeasibilityQuery& q = s.queries[i];
      const WorstCaseResult w = analyze_worst_case(*q.duplex, q.mode, q.model, q.grid_per_symbol);
      it = memo_.emplace(i, w).first;
    }
    return it->second;
  }
  std::map<std::uint32_t, WorstCaseResult>& memo() { return memo_; }
  /// Pass 0's tail answers by query index: later passes must reproduce them.
  std::map<std::uint32_t, SimTailResult> tails;

 private:
  std::map<std::uint32_t, WorstCaseResult> memo_;
};

void check_verdict(const Stream& s, std::uint32_t i, const FeasibilityVerdict& v, Oracle& oracle,
                   Result& res) {
  const FeasibilityQuery& q = s.queries[i];
  const WorstCaseResult& want = oracle.expected(s, i);
  res.check(same_worst_case(v.worst_case, want), "verdict differs from offline analyze_worst_case");
  const bool analytic = want.feasible && want.worst <= q.deadline;
  res.check(v.analytic_meets == analytic, "analytic verdict differs from offline");
  res.check(v.tail.has_value() == q.tail.has_value(), "tail presence differs from the query");
  res.check(v.meets_deadline == (analytic && (!v.tail || v.tail->meets_deadline)),
            "overall verdict inconsistent with its parts");
}

/// Per-pass measurements.
struct Pass {
  double setup_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time of the queries
  std::uint64_t tail_delivered = 0;  ///< packets the fresh tails simulated
  FeasibilityService::Stats stats;
  // traced only: host time by what the service did (sorted by stats() deltas)
  std::vector<double> hit_us, miss_us, tail_hit_us, tail_miss_us, batch_us_per_query;
};

struct ServeRun {
  std::vector<Pass> passes;
  /// The latest pass's answer times (batch members get the batch's time),
  /// all and by item kind; storage is reused so memory does not grow with
  /// the number of passes.
  std::vector<double> query_us;
  std::array<std::vector<double>, kKinds> by_kind;
  /// Per position in the stream, the fastest answer over all passes: every
  /// pass asks the same stream of the same fresh service.
  std::vector<double> fastest_us;
  std::vector<double> cold_p99_us, p50_us, cold_within;  ///< pass 0's tail answers
  std::uint64_t queries = 0;
};

Pass run_pass(const RunOptions& opt, bool traced, int pass_no, Oracle& oracle, ServeRun& run,
              Result& res) {
  Pass p;
  const double c0 = thread_cpu_s();
  FeasibilityService::Options so;
  so.analytic_cache_capacity = 256;  // working set (120) fits; misses churn
  so.tail_cache_capacity = 8;
  so.threads = opt.workers;  // the batch pool
  so.sim_threads = 1;  // tail replications inline: their cost is CPU work, not hand-offs
  auto service = std::make_unique<FeasibilityService>(so);
  const Stream s = build_stream(opt.seed, opt.smoke);
  p.setup_s = thread_cpu_s() - c0;

  std::vector<FeasibilityVerdict> verdicts(s.items.size());
  std::vector<std::vector<FeasibilityVerdict>> batch_out(s.batches.size());
  const auto stat_delta = [&service](const FeasibilityService::Stats& before) {
    const FeasibilityService::Stats now = service->stats();
    FeasibilityService::Stats d;
    d.analytic_hits = now.analytic_hits - before.analytic_hits;
    d.tail_hits = now.tail_hits - before.tail_hits;
    d.tail_misses = now.tail_misses - before.tail_misses;
    return d;
  };

  run.query_us.clear();
  for (auto& v : run.by_kind) v.clear();
  // The pass is timed in process CPU time, the batch pool's threads
  // included. Single queries (under a microsecond on a hit) keep the wall
  // clock, which reads without a system call.
  const double c1 = process_cpu_s();
  for (std::size_t k = 0; k < s.items.size(); ++k) {
    const Item& it = s.items[k];
    FeasibilityService::Stats before;
    if (traced) before = service->stats();
    const auto q0 = Clock::now();
    if (it.kind == Kind::Batch) {
      QueryBatch b;
      b.reserve(s.batches[it.index].size());
      for (const std::uint32_t qi : s.batches[it.index]) b.push_back(s.queries[qi]);
      batch_out[it.index] = service->query_batch(b);
    } else {
      verdicts[k] = service->query(s.queries[it.index]);
    }
    const double us = std::chrono::duration<double, std::micro>(Clock::now() - q0).count();
    if (it.kind == Kind::Batch) {
      const std::size_t n = s.batches[it.index].size();
      run.query_us.insert(run.query_us.end(), n, us);
      auto& batch = run.by_kind[static_cast<int>(Kind::Batch)];
      batch.insert(batch.end(), n, us);
      if (traced) p.batch_us_per_query.push_back(us / static_cast<double>(n));
      continue;
    }
    run.query_us.push_back(us);
    run.by_kind[static_cast<int>(it.kind)].push_back(us);
    if (!traced) continue;
    const FeasibilityService::Stats d = stat_delta(before);
    if (d.tail_misses > 0) {
      p.tail_miss_us.push_back(us);
    } else if (d.tail_hits > 0) {
      p.tail_hit_us.push_back(us);
    } else if (d.analytic_hits > 0) {
      p.hit_us.push_back(us);
    } else {
      p.miss_us.push_back(us);
    }
  }
  p.cpu_s = process_cpu_s() - c1;
  fold_min(run.fastest_us, run.query_us);
  p.stats = service->stats();
  run.queries += s.query_count;
  res.attempted += s.query_count;

  // -- Output checks (outside the timed phase) -------------------------------
  if (opt.force_mismatch && pass_no == 0) {  // self-test: corrupt one expected answer
    const auto it = std::find_if(s.items.begin(), s.items.end(),
                                 [](const Item& i) { return i.kind != Kind::Batch; });
    if (it != s.items.end()) oracle.memo()[it->index].worst += Nanos{1};
  }
  const SimTailResult* cold = nullptr;
  for (std::size_t k = 0; k < s.items.size(); ++k) {
    const Item& it = s.items[k];
    if (it.kind == Kind::Batch) {
      const auto& ids = s.batches[it.index];
      const auto& out = batch_out[it.index];
      res.check(out.size() == ids.size(), "batch returned a different number of verdicts");
      for (std::size_t j = 0; j < std::min(ids.size(), out.size()); ++j) {
        check_verdict(s, ids[j], out[j], oracle, res);
      }
      continue;
    }
    const FeasibilityVerdict& v = verdicts[k];
    check_verdict(s, it.index, v, oracle, res);
    if (it.kind == Kind::Repeat || it.kind == Kind::Unseen || !v.tail) continue;
    if (it.kind == Kind::TailCold) {
      cold = &*v.tail;
      p.tail_delivered += v.tail->reliability.delivered;
    } else if (it.kind == Kind::TailRepeat) {
      res.check(cold != nullptr && same_tail(*v.tail, *cold),
                "re-asked tail differs from its cold answer");
    }
    // Every tail must reproduce pass 0's answer to the same query.
    const auto [at, fresh] = oracle.tails.emplace(it.index, *v.tail);
    res.check(fresh || same_tail(at->second, *v.tail), "tail answer differs from pass 0");
    if (pass_no == 0 && it.kind == Kind::TailCold) {
      run.cold_p99_us.push_back(v.tail->quantile_latency_us);
      run.cold_within.push_back(v.tail->reliability.fraction_within);
    } else if (pass_no == 0 && it.kind == Kind::TailP50) {
      run.p50_us.push_back(v.tail->quantile_latency_us);
    }
  }
  return p;
}

ServeRun serve_passes(const RunOptions& opt, bool traced, double budget, Result& res,
                      Oracle& oracle) {
  ServeRun run;
  const int min_passes = opt.smoke ? 1 : 3;
  // Each pass runs on the next CPU; its service's batch pool, started
  // inside the pass, shares that CPU.
  CpuRotation rotation;
  const auto start = Clock::now();
  while (static_cast<int>(run.passes.size()) < min_passes ||
         (!opt.smoke && seconds_since(start) < budget)) {
    rotation.next();
    run.passes.push_back(
        run_pass(opt, traced, static_cast<int>(run.passes.size()), oracle, run, res));
  }
  return run;
}

void add_serve_layer_metrics(const ServeRun& run, Result& r) {
  std::vector<double> hit, miss, tail_hit, tail_miss, batch;
  FeasibilityService::Stats total;
  for (const Pass& p : run.passes) {
    hit.insert(hit.end(), p.hit_us.begin(), p.hit_us.end());
    miss.insert(miss.end(), p.miss_us.begin(), p.miss_us.end());
    tail_hit.insert(tail_hit.end(), p.tail_hit_us.begin(), p.tail_hit_us.end());
    tail_miss.insert(tail_miss.end(), p.tail_miss_us.begin(), p.tail_miss_us.end());
    batch.insert(batch.end(), p.batch_us_per_query.begin(), p.batch_us_per_query.end());
    total.analytic_hits += p.stats.analytic_hits;
    total.analytic_misses += p.stats.analytic_misses;
    total.tail_hits += p.stats.tail_hits;
    total.tail_misses += p.stats.tail_misses;
    total.evictions += p.stats.evictions;
  }
  const double tails = static_cast<double>(total.tail_hits + total.tail_misses);
  r.add("serve.hit_us_p50", quantile(hit, 0.50), "us");
  r.add("serve.hit_us_p99", quantile(hit, 0.99), "us");
  r.add("serve.analytic_miss_us", median(miss), "us");
  r.add("serve.tail_hit_us", median(tail_hit), "us");
  r.add("serve.tail_miss_ms", median(tail_miss) / 1e3, "ms");
  r.add("serve.batch_us_per_query", median(batch), "us");
  r.add("serve.analytic_hit_rate", total.analytic_hit_rate(), "fraction");
  r.add("serve.tail_hit_rate", tails > 0 ? static_cast<double>(total.tail_hits) / tails : 0.0,
        "fraction");
  r.add("serve.evictions",
        static_cast<double>(total.evictions) / static_cast<double>(run.passes.size()), "count");
}

}  // namespace

Result run_serve(const RunOptions& opt) {
  Result res;
  Oracle oracle;
  ServeRun run = serve_passes(opt, false, opt.trace ? opt.seconds / 2 : opt.seconds, res, oracle);
  // Every pass does the same deterministic work, and other tenants of a
  // shared host can only slow it down, so whole-pass figures are the median
  // of the fastest quarter of the passes. A single answer takes microseconds,
  // so its figure is its fastest time at its stream position.
  std::vector<double> walls, setups;
  for (const Pass& p : run.passes) {
    walls.push_back(p.cpu_s);
    setups.push_back(p.setup_s);
  }
  const double cpu_s = fastest_quarter_median(walls);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%zu passes of %llu queries (query_p50_us/p99_us over the fastest answer at each "
                "of %zu stream positions); %zu fresh tails per pass",
                run.passes.size(),
                static_cast<unsigned long long>(run.queries / run.passes.size()),
                run.fastest_us.size(), run.cold_p99_us.size());
  res.note(buf);
  std::snprintf(buf, sizeof buf, "pass CPU time (s): min %.5f, median %.5f, max %.5f", cpu_s,
                median(walls), quantile(walls, 1.0));
  res.note(buf);
  // Where query_p99_us comes from (latest pass): each kind's share of the
  // samples and its p50/p99.
  for (int k = 0; k < kKinds; ++k) {
    const auto& v = run.by_kind[static_cast<std::size_t>(k)];
    std::snprintf(buf, sizeof buf, "  %-10s %6.2f%% of samples, p50 %10.2f us, p99 %10.2f us",
                  kKindNames[k], 100.0 * ratio(v.size(), run.query_us.size()),
                  quantile(v, 0.5), quantile(v, 0.99));
    res.note(buf);
  }
  if (!opt.trace) {
    res.add("wall_s", cpu_s, "s");
    res.add("setup_s", fastest_quarter_median(setups), "s");
    res.add("ue_pkt_per_s", static_cast<double>(run.passes.front().tail_delivered) / cpu_s,
            "pkt/s");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("queries_per_s",
            static_cast<double>(run.queries) / static_cast<double>(run.passes.size()) / cpu_s,
            "q/s");
    res.add("query_p50_us", quantile(run.fastest_us, 0.50), "us");
    res.add("query_p99_us", quantile(run.fastest_us, 0.99), "us");
    // Simulated latency as the fresh tails answered it (pass 0; seeded).
    res.add("sim_p50_us", median(run.p50_us), "us");
    res.add("sim_p99_us", median(run.cold_p99_us), "us");
    double within = 0.0;
    for (const double w : run.cold_within) within += w;
    res.add("sim_deadline_frac",
            run.cold_within.empty() ? 0.0 : within / static_cast<double>(run.cold_within.size()),
            "fraction");
    return res;
  }

  ServeRun traced = serve_passes(opt, true, opt.seconds / 2, res, oracle);
  std::vector<double> traced_walls;
  for (const Pass& p : traced.passes) traced_walls.push_back(p.cpu_s);
  add_serve_layer_metrics(traced, res);
  res.add("trace.overhead_frac", fastest_quarter_median(traced_walls) / cpu_s - 1.0, "fraction");
  probe_sharded(opt, res);
  probe_layers(opt, res);
  return res;
}

void probe_serve(const RunOptions& opt, Result& r) {
  Oracle oracle;
  RunOptions o = opt;
  o.force_mismatch = false;
  const ServeRun run = serve_passes(o, true, opt.smoke ? 0.0 : 1.0, r, oracle);
  add_serve_layer_metrics(run, r);
}

}  // namespace perfbench
