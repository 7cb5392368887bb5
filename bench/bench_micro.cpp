// Microbenchmarks of the library's own hot paths (google-benchmark): the
// event kernel, the protocol entities, the opportunity queries, and the
// analytic engine. These guard the simulator's performance — a full Fig 6
// run schedules hundreds of thousands of events.
//
// `bench_micro --json out.json` emits the machine-readable google-benchmark
// JSON (shorthand for --benchmark_out=out.json --benchmark_out_format=json)
// so the perf trajectory (BENCH_*.json) can track kernel ops/sec and
// end-to-end bench wall-clock across commits.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "core/e2e_system.hpp"
#include "core/latency_model.hpp"
#include "pdcp/pdcp_entity.hpp"
#include "rlc/rlc_entity.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"
#include "tdd/common_config.hpp"
#include "tdd/dynamic_format.hpp"
#include "tdd/opportunity.hpp"

using namespace u5g;
using namespace u5g::literals;

namespace {

void BM_SimulatorScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(Nanos{i * 100}, [&fired] { ++fired; });
    }
    sim.run_until();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleFire);

// The bench-suite mix: schedule bursts, cancel a fraction (HARQ timers and
// periodic re-arms behave like this), fire the rest. Items = all three ops.
void BM_SimulatorScheduleFireCancelMix(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    Simulator sim;
    std::vector<EventHandle> handles;
    handles.reserve(1000);
    int fired = 0;
    int cancelled = 0;
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.schedule_at(Nanos{static_cast<std::int64_t>(rng.uniform_int(100'000))},
                                        [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < handles.size(); i += 3) {  // tombstone a third
      cancelled += sim.cancel(handles[i]) ? 1 : 0;
    }
    sim.run_until();
    benchmark::DoNotOptimize(fired);
    benchmark::DoNotOptimize(cancelled);
  }
  state.SetItemsProcessed(state.iterations() * (1000 + 1000 / 3));
}
BENCHMARK(BM_SimulatorScheduleFireCancelMix);

// Steady-state self-rescheduling chain (the PeriodicProcess pattern): the
// queue stays tiny, so this isolates per-event overhead from heap growth.
void BM_SimulatorPeriodicChain(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    long ticks = 0;
    struct Chain {
      Simulator& sim;
      long& ticks;
      void operator()() const {
        ++ticks;
        if (ticks % 10'000 != 0) sim.schedule_after(Nanos{100}, Chain{sim, ticks});
      }
    };
    sim.schedule_at(Nanos::zero(), Chain{sim, ticks});
    sim.run_until();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorPeriodicChain);

// The stack_mix shape: a cell's whole traffic schedule is injected before
// the run (3,200 future arrivals), while a slot tick every 0.25 ms schedules
// about 6 near-term protocol events from inside its callback, and each
// arrival schedules one follow-up. The injected backlog stays deep for the
// whole run; the near-term churn does not. Items = events fired.
void BM_SimulatorInjectedBacklog(benchmark::State& state) {
  constexpr int kArrivals = 3200;
  constexpr int kSlots = 8000;  // 2 s of 0.25 ms slots
  constexpr std::int64_t kSlotNs = 250'000;
  std::uint64_t fired_total = 0;
  for (auto _ : state) {
    Simulator sim;
    Rng rng(11);
    long fired = 0;
    for (int i = 0; i < kArrivals; ++i) {
      const Nanos at{static_cast<std::int64_t>(rng.uniform_int(kSlots * kSlotNs))};
      sim.schedule_at(at, [&sim, &fired] {
        ++fired;
        sim.schedule_after(Nanos{30'000}, [&fired] { ++fired; });
      });
    }
    struct SlotTick {
      Simulator& sim;
      long& fired;
      void operator()() const {
        ++fired;
        for (std::int64_t k = 1; k <= 5; ++k) {
          sim.schedule_after(Nanos{k * 45'000}, [f = &fired] { ++*f; });
        }
        if (sim.now() < Nanos{(kSlots - 1) * kSlotNs}) {
          sim.schedule_after(Nanos{kSlotNs}, SlotTick{sim, fired});
        }
      }
    };
    sim.schedule_at(Nanos::zero(), SlotTick{sim, fired});
    sim.run_until();
    fired_total += static_cast<std::uint64_t>(fired);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired_total));
}
BENCHMARK(BM_SimulatorInjectedBacklog);

// Many events per timestamp: 64 share every timestamp (64 timestamps,
// scheduled timestamp-interleaved). Per-timestamp bucketing favours this
// regime; the case shows what the heap kernel gives up in it.
void BM_SimulatorSameTimestampBurst(benchmark::State& state) {
  constexpr int kTimes = 64;
  constexpr int kPerTime = 64;
  for (auto _ : state) {
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < kPerTime; ++i) {
      for (int t = 0; t < kTimes; ++t) {
        sim.schedule_at(Nanos{t * 250'000}, [&fired] { ++fired; });
      }
    }
    sim.run_until();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kTimes * kPerTime);
}
BENCHMARK(BM_SimulatorSameTimestampBurst);

// What one pending event costs in memory: 100k events are scheduled and left
// pending, first with closures that fit a compact slot (a `this` plus an
// index, like a packet arrival), then with closures that need a wide slot
// (a 64-byte payload, like a datapath closure carrying a ByteBuffer). The
// allocator's in-use bytes (mallinfo2, small blocks plus mmapped ones) are
// read before and after, so the figure covers slot chunks and heap entries
// alike. Counters: bytes per pending event for each closure kind.
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

template <typename MakeClosure>
double pending_bytes_per_event(int events, MakeClosure make) {
  const std::size_t before = heap_in_use();
  Simulator sim;
  for (int i = 0; i < events; ++i) sim.schedule_at(Nanos{i}, make(i));
  const std::size_t after = heap_in_use();
  benchmark::DoNotOptimize(sim.pending_events());
  return static_cast<double>(after - before) / events;
}

void BM_PendingEventFootprint(benchmark::State& state) {
  constexpr int kEvents = 100'000;
  long fired = 0;
  double compact = 0.0;
  double wide = 0.0;
  for (auto _ : state) {
    compact = pending_bytes_per_event(kEvents, [&fired](int i) {
      return [&fired, i] { fired += i; };
    });
    wide = pending_bytes_per_event(kEvents, [&fired](int i) {
      return [&fired, i, payload = std::array<std::uint64_t, 8>{}] { fired += i + payload[0]; };
    });
  }
  benchmark::DoNotOptimize(fired);
  state.counters["compact_B_per_event"] = compact;
  state.counters["wide_B_per_event"] = wide;
  state.SetItemsProcessed(state.iterations() * 2 * kEvents);
}
BENCHMARK(BM_PendingEventFootprint)->Unit(benchmark::kMillisecond);

// End-to-end wall-clock proxy: one small testbed Fig-6-style run. Tracks the
// full-stack cost per packet, the number the parallel runner multiplies.
void BM_E2eTestbedRun(benchmark::State& state) {
  const int packets = static_cast<int>(state.range(0));
  for (auto _ : state) {
    E2eSystem sys(StackConfig::testbed_grant_free(42));
    Rng rng(42 ^ 0xF16);
    const Nanos period = 2_ms;
    for (int i = 0; i < packets; ++i) {
      sys.send_uplink_at(period * (2 * i) +
                         Nanos{static_cast<std::int64_t>(
                             rng.uniform() * static_cast<double>(period.count()))});
    }
    sys.run_until(period * (2 * packets + 20));
    benchmark::DoNotOptimize(sys.records().size());
  }
  state.SetItemsProcessed(state.iterations() * packets);
}
BENCHMARK(BM_E2eTestbedRun)->Arg(50);

// Fan-out overhead of the Monte-Carlo runner itself: trivial replications,
// so the measured time is pool setup + dispatch + merge bookkeeping.
void BM_RunnerFanOut(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto results = run_replications(
        n, 1, [](int i, std::uint64_t seed) { return static_cast<double>(seed >> 32) + i; },
        {0});
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RunnerFanOut)->Arg(16);

void BM_PdcpProtectVerify(benchmark::State& state) {
  PdcpTx tx;
  PdcpRx rx;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ByteBuffer b(n, 0x42);
    tx.protect(b);
    int delivered = 0;
    rx.receive(std::move(b), [&](ByteBuffer&&, const PacketMeta&) { ++delivered; });
    benchmark::DoNotOptimize(delivered);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PdcpProtectVerify)->Arg(64)->Arg(1500);

void BM_RlcSegmentReassemble(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    RlcTx tx(RlcMode::UM);
    RlcRx rx(RlcMode::UM);
    tx.enqueue(ByteBuffer(n, 0x7), Nanos::zero());
    int delivered = 0;
    while (auto pdu = tx.pull(128)) {
      rx.receive(std::move(pdu->pdu), [&](ByteBuffer&&, const PacketMeta&) { ++delivered; });
    }
    benchmark::DoNotOptimize(delivered);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RlcSegmentReassemble)->Arg(64)->Arg(4096);

void BM_NextUlTx(benchmark::State& state) {
  const TddCommonConfig cfg = TddCommonConfig::dm(kMu2);
  Nanos t{0};
  for (auto _ : state) {
    const auto w = next_ul_tx(cfg, t, 2);
    benchmark::DoNotOptimize(w);
    t = w ? w->start + Nanos{1} : Nanos{0};
    if (t > Nanos{1'000'000'000}) t = Nanos{0};
  }
}
BENCHMARK(BM_NextUlTx);

// The analytic sweep on each of its three run paths (first stage: SR
// window, UL data window, DL data window), over DM µ2 and serve_mix's
// longest period, DDDU µ1. Args: {mode 0..2 = GB/GF/DL, config 0..1}.
void BM_WorstCaseSweep(benchmark::State& state) {
  constexpr AccessMode kModes[] = {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl,
                                   AccessMode::Downlink};
  constexpr const char* kModeNames[] = {"GB", "GF", "DL"};
  const AccessMode mode = kModes[state.range(0)];
  const TddCommonConfig cfg =
      state.range(1) == 0 ? TddCommonConfig::dm(kMu2) : TddCommonConfig::dddu(kMu1);
  state.SetLabel(std::string{kModeNames[state.range(0)]} +
                 (state.range(1) == 0 ? " DM mu2" : " DDDU mu1"));
  for (auto _ : state) {
    const auto wc = analyze_worst_case(cfg, mode, {});
    benchmark::DoNotOptimize(wc);
  }
}
BENCHMARK(BM_WorstCaseSweep)->Apply([](benchmark::internal::Benchmark* b) {
  for (int mode = 0; mode < 3; ++mode) {
    for (int cfg = 0; cfg < 2; ++cfg) b->Args({mode, cfg});
  }
});

// One slot-boundary decision of the dynamic slot-format policy over DM with
// the sharded stack's knobs (64-slot hold), fed seeded queue states in which
// one packet per direction is in flight and excess backlog is rare.
void BM_DynamicDecide(benchmark::State& state) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  DynamicTddConfig knobs;
  knobs.enabled = true;
  knobs.preemption = true;
  knobs.xlink_ul_bler = 0.4;
  knobs.hold_slots = 64;
  std::vector<TddQueueState> states(4096);
  Rng rng(0x7DD);
  const auto count = [&rng](double p1, double p2) {
    return static_cast<std::uint32_t>(rng.bernoulli(p1)) +
           static_cast<std::uint32_t>(rng.bernoulli(p2));
  };
  for (TddQueueState& q : states) {
    q.sr_pending = count(0.3, 0.002);
    q.ul_retx_tbs = count(0.002, 0.0);
    q.ul_queued_sdus = count(0.3, 0.002);
    q.dl_queued_sdus = count(0.3, 0.002);
    q.dl_inflight_tbs = count(0.3, 0.002);
  }
  DynamicFormatPolicy policy(dm, knobs);
  SlotIndex k = 0;
  for (auto _ : state) {
    const DecidedFormat f = policy.decide(k, states[static_cast<std::size_t>(k) % states.size()]);
    benchmark::DoNotOptimize(f);
    ++k;
  }
  state.counters["upgraded_ratio"] =
      static_cast<double>(policy.upgraded_slots()) / static_cast<double>(std::max<SlotIndex>(k, 1));
}
BENCHMARK(BM_DynamicDecide);

}  // namespace

int main(int argc, char** argv) {
  // Expand `--json FILE` into google-benchmark's out flags before Initialize
  // sees the command line.
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--json") == 0) {
      args.push_back("--benchmark_out=" + std::string(argv[i + 1]));
      args.push_back("--benchmark_out_format=json");
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  std::vector<char*> cargs;
  cargs.reserve(args.size());
  for (std::string& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
