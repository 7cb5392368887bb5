// city_1m and stack_mix: seeded scenarios on the sharded engine.
//
// One repetition builds the engine and injects the seeded traffic
// (setup_s), then runs it to the horizon: either in one run_until() call
// (wall_s, ue_pkt_per_s), or as a client that advances simulated time one
// client step at a time and times every step (the "queries" of these
// workloads). Every repetition replays the same inputs, so its outputs must
// equal repetition 0's; any difference is a failed check.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/runner.hpp"
#include "sim/sharded.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace u5g;

// -- Scenario pieces shared with the probes -------------------------------------

PopulationConfig city_population() {
  // bench_citywide's population (10 ms mean inter-arrival, ~78% offered
  // load, 5% loss), with the grant budget halved for the 0.25 ms µ2 slot so
  // the offered load stays at ~78%: 1000 x 0.25/10 = 25 arrivals per slot
  // against 32 grants.
  PopulationConfig p;
  p.background_ues = 1000;
  p.mean_interarrival = Nanos{10'000'000};
  p.grants_per_slot = 32;
  p.loss = 0.05;
  return p;
}

/// stack_mix's StackConfig (shared with the e2e, LBT and TDD probes): the
/// §5 URLLC design with grant-based UL (SR -> grant -> HARQ), as
/// bench_coexistence and bench_dynamic_tdd run it.
StackConfig stack_config(std::uint64_t seed, int cells) {
  StackConfig cfg = StackConfig::urllc_design(seed);
  cfg.grant_free = false;
  cfg.sr = SrConfig::per_slot(kMu2);
  cfg.num_cells = cells;
  cfg.num_ues = 8;
  cfg.intercell_load_coupling = 0.02;
  cfg.lbt.enabled = true;  // bench_coexistence "moderate" Wi-Fi: ~20% duty
  cfg.lbt.wifi_busy_mean = Nanos{60'000};
  cfg.lbt.wifi_idle_mean = Nanos{240'000};
  cfg.dynamic_tdd.enabled = true;  // bench_dynamic_tdd's sharded section
  cfg.dynamic_tdd.preemption = true;
  cfg.dynamic_tdd.xlink_ul_bler = 0.4;
  cfg.dynamic_tdd.hold_slots = 64;
  cfg.trace.enabled = true;
  cfg.trace.spans = false;
  cfg.trace.metrics = true;
  return cfg;
}

/// stack_mix traffic: every UE sends one UL packet and receives one DL
/// packet per round, at seeded offsets inside each half of the round.
void stack_traffic(std::uint64_t seed, int cells, int ues, int rounds, const TrafficSink& emit,
                   Nanos round) {
  const Nanos half = round / 2;
  for (int c = 0; c < cells; ++c) {
    for (int u = 0; u < ues; ++u) {
      const std::uint64_t key = static_cast<std::uint64_t>(c) * 1000003ULL +
                                static_cast<std::uint64_t>(u) * 1009ULL;
      for (int p = 0; p < rounds; ++p) {
        const auto off = [&](std::uint64_t salt) {
          return Nanos{static_cast<std::int64_t>(
              splitmix64(seed ^ salt ^ replication_seed(key, static_cast<std::uint64_t>(p))) %
              static_cast<std::uint64_t>(half.count()))};
        };
        const Nanos base = round * p;
        emit(true, base + off(0), c, u);
        emit(false, base + half + off(0xD1), c, u);
      }
    }
  }
}

int stack_rounds(bool smoke) { return smoke ? 6 : 200; }
Nanos stack_horizon(int rounds) { return kStackRound * rounds + Nanos{20'000'000}; }

namespace {

struct SimSpec {
  StackConfig cfg;
  Nanos horizon{};          ///< a multiple of client_step
  Nanos client_step{};      ///< span of one client "query", a multiple of window()
  Nanos deadline{500'000};  ///< sim_deadline_frac threshold
  std::uint64_t tracked_offered = 0;
  std::function<void(ShardedEngine&)> inject;
};

/// The bench_citywide 1000 x 1000 shape. The tracked UE runs the §5 URLLC
/// design (µ2 DM, grant-free, PCIe radios) rather than the µ1 testbed, which
/// can never meet the 0.5 ms deadline sim_deadline_frac counts against.
SimSpec city_spec(std::uint64_t seed, bool smoke) {
  const int cells = smoke ? 8 : 1000;
  const int bg_ues = smoke ? 200 : 1000;
  const int per_cell = 8;  // 8000 tracked samples: 80 beyond the p99
  SimSpec s;
  s.cfg = StackConfig::urllc_design(seed);
  s.cfg.num_cells = cells;
  s.cfg.num_ues = 1;  // one tracked grant-free UE per cell
  s.cfg.intercell_load_coupling = 0.005;
  s.cfg.population = city_population();
  s.cfg.population.background_ues = bg_ues;
  s.cfg.trace.enabled = true;  // metrics only: merged_metrics() is the 1-vs-N witness
  s.cfg.trace.spans = false;
  s.cfg.trace.metrics = true;
  // 50 ms per repetition keeps repetitions short, so a run holds many of
  // them and its fastest one is steady.
  s.horizon = Nanos{smoke ? 20'000'000 : 50'000'000};
  // Every cell's population ticks every slot, so every window is one slot
  // and no cell is ever idle: stepping one window at a time skips nothing
  // the one-call form would skip, and gives 200 steps per repetition.
  s.client_step = s.cfg.duplex->numerology().slot_duration();
  s.tracked_offered = static_cast<std::uint64_t>(cells) * per_cell;
  const Nanos horizon = s.horizon;
  s.inject = [seed, cells, per_cell, horizon](ShardedEngine& eng) {
    const auto span = static_cast<std::uint64_t>(horizon.count() / 2);
    for (int c = 0; c < cells; ++c) {
      for (int p = 0; p < per_cell; ++p) {
        const std::uint64_t h = splitmix64(
            seed ^ (static_cast<std::uint64_t>(c) * 1000003ULL + static_cast<std::uint64_t>(p)));
        eng.send_uplink_at(Nanos{static_cast<std::int64_t>(h % span)}, c, 0);
      }
    }
  };
  return s;
}

SimSpec stack_spec(std::uint64_t seed, bool smoke) {
  const int cells = smoke ? 4 : 16;
  const int rounds = stack_rounds(smoke);
  SimSpec s;
  s.cfg = stack_config(seed, cells);
  s.horizon = stack_horizon(rounds);
  // One traffic round: long enough for the adaptive windows to skip the
  // idle slots and for idle cells to be filtered inside each step.
  s.client_step = kStackRound;
  // Grant-based UL behind LBT never meets 0.5 ms (SR cycle + CAT4 defer),
  // so stack_mix counts against 3 ms (about 70% of packets; across seeds
  // steadier than 2 ms, which sits at the median); the 0.5 ms count is
  // printed too.
  s.deadline = Nanos{3'000'000};
  s.tracked_offered = static_cast<std::uint64_t>(cells) * 8 * 2 * rounds;
  s.inject = [seed, cells, rounds](ShardedEngine& eng) {
    stack_traffic(seed, cells, 8, rounds, [&eng](bool uplink, Nanos at, int cell, int ue) {
      if (uplink) {
        eng.send_uplink_at(at, cell, ue);
      } else {
        eng.send_downlink_at(at, cell, ue);
      }
    });
  };
  return s;
}

// -- One repetition -----------------------------------------------------------

struct Rep {
  double setup_s = 0.0;         ///< thread CPU time of construction + injection
  double cpu_s = 0.0;           ///< thread CPU time of the run to the horizon
  double wall_s = 0.0;          ///< wall time of the same (for parallel_eff)
  std::vector<double> step_us;  ///< thread CPU time per client step (stepped reps)
  std::uint64_t offered = 0;    ///< tracked + background
  std::uint64_t delivered = 0;  ///< tracked + background
  std::uint64_t events = 0;
  std::uint64_t digest = 0;     ///< fold of every output the checks compare
  SampleSet tracked_us;         ///< tracked one-way latencies, UL then DL
  std::uint64_t tracked_delivered_ul = 0;
  std::uint64_t tracked_delivered_dl = 0;
  LbtGate::Stats lbt;
  std::string merged_json;      ///< merged_metrics(), when requested
};

std::uint64_t fold(std::uint64_t h, std::uint64_t v) { return splitmix64(h ^ v); }

std::uint64_t fold_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  __builtin_memcpy(&bits, &v, sizeof v);
  return fold(h, bits);
}

/// One repetition. With `stepped` false the engine runs to the horizon in
/// one run_until() call, the form every caller in the repo uses; with it
/// true a client advances it one client_step at a time and times each step.
/// The engine thread is the calling thread at one worker, so thread CPU
/// time covers all of its work. Only repetition 0 (`first`) keeps its
/// latency samples, and only the 1-vs-N pair (`want_json`) its merged
/// metrics; the rest keep the digest.
Rep run_rep(const SimSpec& spec, int workers, bool stepped, bool first, bool want_json) {
  Rep r;
  const double c0 = thread_cpu_s();
  ShardedEngine eng(spec.cfg, ShardedOptions{workers});
  spec.inject(eng);
  r.setup_s = thread_cpu_s() - c0;

  const auto t1 = Clock::now();
  const double c1 = thread_cpu_s();
  if (stepped) {
    r.step_us.reserve(static_cast<std::size_t>(spec.horizon / spec.client_step) + 1);
    for (Nanos t = Nanos::zero(); t < spec.horizon;) {
      t = std::min(t + spec.client_step, spec.horizon);
      const double s0 = thread_cpu_s();
      eng.run_until(t);
      r.step_us.push_back((thread_cpu_s() - s0) * 1e6);
    }
  } else {
    eng.run_until(spec.horizon);
  }
  r.cpu_s = thread_cpu_s() - c1;
  r.wall_s = seconds_since(t1);

  const auto pop = eng.population_totals();
  r.offered = spec.tracked_offered + pop.offered;
  r.delivered = eng.packets_delivered() + pop.delivered;
  r.events = eng.events_fired();
  r.lbt = eng.lbt_stats();
  SampleSet ul = eng.latency_samples_us(Direction::Uplink);
  SampleSet dl = eng.latency_samples_us(Direction::Downlink);
  r.tracked_delivered_ul = ul.count();
  r.tracked_delivered_dl = dl.count();
  std::uint64_t h = fold(0, r.offered);
  for (const std::uint64_t v :
       {r.delivered, r.events, pop.harq_drops, pop.queue_drops, pop.grants_used, pop.queued,
        r.lbt.attempts, r.lbt.deferred, r.lbt.hidden_collisions, eng.dynamic_upgraded_slots(),
        eng.punctured_retx(), eng.crosslink_ul_losses()}) {
    h = fold(h, v);
  }
  for (const double x : ul.samples()) h = fold_double(h, x);
  for (const double x : dl.samples()) h = fold_double(h, x);
  r.digest = h;
  if (first) {
    for (const double x : ul.samples()) r.tracked_us.add(x);
    for (const double x : dl.samples()) r.tracked_us.add(x);
  }
  if (want_json) r.merged_json = eng.merged_metrics().to_json();
  return r;
}

/// Population accounting identity over the whole city, plus tracked
/// delivery bounds; a violation is a failed check.
void check_rep(const SimSpec& spec, const Rep& rep, std::uint64_t expected_digest, Result& res) {
  res.check(rep.digest == expected_digest,
            "repetition outputs differ from repetition 0 (same seed, same inputs)");
  res.check(rep.delivered <= rep.offered, "more packets delivered than offered");
  res.check(rep.tracked_delivered_ul + rep.tracked_delivered_dl <= spec.tracked_offered,
            "more tracked packets delivered than offered");
}

void add_sim_metrics(const SimSpec& spec, Rep& first, Result& res) {
  SampleSet& s = first.tracked_us;
  res.add("sim_p50_us", s.quantile(0.50), "us");
  res.add("sim_p99_us", s.quantile(0.99), "us");
  const auto within = [&s](Nanos d) {
    return s.fraction_at_or_below(static_cast<double>(d.count()) / 1e3) *
           static_cast<double>(s.count());
  };
  res.add("sim_deadline_frac", within(spec.deadline) / static_cast<double>(spec.tracked_offered),
          "fraction");
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "tracked packets: offered %llu, delivered UL %llu + DL %llu, within 0.5 ms %.0f, "
                "within %.1f ms %.0f, samples beyond p99: %.0f",
                static_cast<unsigned long long>(spec.tracked_offered),
                static_cast<unsigned long long>(first.tracked_delivered_ul),
                static_cast<unsigned long long>(first.tracked_delivered_dl),
                within(Nanos{500'000}), static_cast<double>(spec.deadline.count()) / 1e6,
                within(spec.deadline),
                static_cast<double>(s.count()) -
                    within(Nanos{static_cast<std::int64_t>(s.quantile(0.99) * 1e3)}));
  res.note(buf);
}

Result run_sim_workload(const SimSpec& spec, const RunOptions& opt) {
  Result res;
  const int min_reps = opt.smoke ? 1 : 3;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  // One-call repetitions (wall_s, ue_pkt_per_s, setup_s) interleave with
  // client-stepped ones (query_*, sharded.step_us_*), so host drift hits
  // both sides alike. Both must reproduce repetition 0.
  // Each pair runs on the next CPU, so every CPU serves both kinds.
  std::vector<Rep> plain, stepped;
  {
    CpuRotation rotation;
    const auto start = Clock::now();
    while (static_cast<int>(plain.size()) < min_reps ||
           (!opt.smoke && seconds_since(start) < budget)) {
      rotation.next();
      const bool first = plain.empty();
      plain.push_back(run_rep(spec, kEngineWorkers, false, first, opt.trace && first));
      stepped.push_back(run_rep(spec, kEngineWorkers, true, false, false));
    }
  }
  Rep& first = plain.front();
  // Every repetition must reproduce repetition 0; the self-test corrupts the
  // expected value instead.
  const std::uint64_t expected = first.digest ^ (opt.force_mismatch ? 1U : 0U);
  std::vector<double> cpus, setups, stepped_cpus;
  for (const Rep& r : plain) {
    check_rep(spec, r, expected, res);
    res.attempted += r.offered;
    cpus.push_back(r.cpu_s);
    setups.push_back(r.setup_s);
  }
  for (const Rep& r : stepped) {
    check_rep(spec, r, expected, res);
    res.attempted += r.offered;
    stepped_cpus.push_back(r.cpu_s);
    setups.push_back(r.setup_s);
  }
  // Every repetition does the same deterministic work, and other tenants of
  // a shared host can only slow it down, so the host-time figures come from
  // the fastest quarter of the repetitions: their median for whole runs,
  // their steps pooled for the client steps.
  const double cpu_s = fastest_quarter_median(cpus);
  std::vector<double> step_us;
  double step_cpu_s = 0.0;
  for (const std::size_t i : fastest_quarter(stepped_cpus)) {
    step_us.insert(step_us.end(), stepped[i].step_us.begin(), stepped[i].step_us.end());
    step_cpu_s += stepped[i].cpu_s;
  }

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%zu one-call + %zu stepped repetitions (%zu client steps of %.2f ms each); per "
                "repetition: offered %llu, delivered %llu (tracked + background), %llu events",
                plain.size(), stepped.size(), stepped.front().step_us.size(),
                static_cast<double>(spec.client_step.count()) / 1e6,
                static_cast<unsigned long long>(first.offered),
                static_cast<unsigned long long>(first.delivered),
                static_cast<unsigned long long>(first.events));
  res.note(buf);
  std::snprintf(buf, sizeof buf,
                "one-call CPU time (s) per repetition: min %.4f, median %.4f, max %.4f; "
                "stepped: min %.4f, median %.4f, max %.4f",
                quantile(cpus, 0.0), median(cpus), quantile(cpus, 1.0),
                quantile(stepped_cpus, 0.0), median(stepped_cpus), quantile(stepped_cpus, 1.0));
  res.note(buf);
  std::snprintf(buf, sizeof buf,
                "client step CPU time (us) over the fastest quarter's %zu steps: p50 %.1f, p99 "
                "%.1f, max %.1f",
                step_us.size(), quantile(step_us, 0.50), quantile(step_us, 0.99),
                quantile(step_us, 1.0));
  res.note(buf);

  if (!opt.trace) {
    res.add("wall_s", cpu_s, "s");
    res.add("setup_s", fastest_quarter_median(setups), "s");
    res.add("ue_pkt_per_s", static_cast<double>(first.delivered) / cpu_s, "pkt/s");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("queries_per_s", static_cast<double>(step_us.size()) / step_cpu_s, "q/s");
    res.add("query_p50_us", quantile(step_us, 0.50), "us");
    res.add("query_p99_us", quantile(step_us, 0.99), "us");
    add_sim_metrics(spec, first, res);
    return res;
  }

  // -- Traced run: sharded.* ------------------------------------------------------
  // Replay at N workers: the 1-vs-N determinism witness and the parallel-
  // efficiency measurement (2 workers stand in for N on a 1-core host).
  static_assert(kEngineWorkers == 1, "the replay is the N-worker side");
  const int n = std::max(opt.workers, 2);
  Rep replay = run_rep(spec, n, false, false, true);
  res.attempted += replay.offered;
  check_rep(spec, replay, expected, res);
  res.check(replay.merged_json == first.merged_json,
            "merged_metrics() differs between 1 and N workers");
  std::snprintf(buf, sizeof buf, "merged_metrics() at 1 vs %d workers: %s", n,
                replay.merged_json == first.merged_json ? "byte-identical" : "DIFFERENT");
  res.note(buf);

  std::vector<double> walls;
  for (const Rep& r : plain) walls.push_back(r.wall_s);
  res.add("sharded.step_us_p50", quantile(step_us, 0.50), "us");
  res.add("sharded.step_us_p99", quantile(step_us, 0.99), "us");
  res.add("sharded.events", static_cast<double>(first.events), "count");
  res.add("sharded.ns_per_event", cpu_s * 1e9 / static_cast<double>(first.events), "ns");
  res.add("sharded.parallel_eff", fastest_quarter_median(walls) / (n * replay.wall_s), "ratio");
  res.add("trace.overhead_frac", fastest_quarter_median(stepped_cpus) / cpu_s - 1.0, "fraction");
  return res;
}

}  // namespace

Result run_city(const RunOptions& opt) {
  Result r = run_sim_workload(city_spec(opt.seed, opt.smoke), opt);
  if (opt.trace) {
    probe_serve(opt, r);
    probe_layers(opt, r);
  }
  return r;
}

Result run_stack(const RunOptions& opt) {
  Result r = run_sim_workload(stack_spec(opt.seed, opt.smoke), opt);
  if (opt.trace) {
    probe_serve(opt, r);
    probe_layers(opt, r);
  }
  return r;
}

LbtGate::Stats stack_mix_lbt_stats(const RunOptions& opt) {
  return run_rep(stack_spec(opt.seed, opt.smoke), kEngineWorkers, false, false, false).lbt;
}

/// Reduced stack_mix engine for serve_mix's traced run: sharded.* needs an
/// engine, and serve_mix has none of its own.
void probe_sharded(const RunOptions& opt, Result& r) {
  RunOptions o = opt;
  o.seconds = opt.smoke ? 0.0 : 2.0;
  SimSpec spec = stack_spec(opt.seed, opt.smoke);
  Result tmp = run_sim_workload(spec, o);
  r.attempted += tmp.attempted;
  r.failed += tmp.failed;
  for (auto& n : tmp.notes) r.note("sharded probe: " + n);
  for (auto& m : tmp.metrics) {
    if (m.name.rfind("sharded.", 0) == 0) r.metrics.push_back(m);
  }
}

}  // namespace perfbench
