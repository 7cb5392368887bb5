#pragma once
// The benchmark's workloads and per-layer probes.
//
//   city_1m    ShardedEngine, 1000 cells x 1000 background UEs + one tracked
//              grant-free UE per cell (population tick + sharded barriers).
//   stack_mix  ShardedEngine, 16 cells x 8 tracked full-stack UEs, grant-based
//              UL and DL under NR-U LBT and dynamic TDD (per-packet stack work).
//   serve_mix  closed-loop FeasibilityService client (cache hits, analytic
//              misses, sim-tail queries, query_batch sweeps).
//
// Every workload fills all end-to-end metrics (`--trace 0`); the traced run
// (`--trace 1`) fills every per-layer metric instead. See perfbench/README.md
// for what each metric means on each workload.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/stack_config.hpp"
#include "phy/lbt.hpp"
#include "report.hpp"
#include "serve/query.hpp"

namespace perfbench {

// -- Scenario pieces shared by the workloads and the probes -----------------

/// city_1m's background population (the bench_citywide 1000 x 1000 row).
[[nodiscard]] u5g::PopulationConfig city_population();
/// stack_mix's StackConfig with `cells` cells.
[[nodiscard]] u5g::StackConfig stack_config(std::uint64_t seed, int cells);
/// Receives one generated packet: direction, arrival time, cell, UE.
using TrafficSink = std::function<void(bool uplink, u5g::Nanos at, int cell, int ue)>;
/// stack_mix's round: one UL and one DL packet per UE. At a 4 ms round the
/// LBT-gated cells overload and latency grows without bound.
inline constexpr u5g::Nanos kStackRound{10'000'000};
/// stack_mix traffic: per UE one UL and one DL packet per `round`.
void stack_traffic(std::uint64_t seed, int cells, int ues, int rounds, const TrafficSink& emit,
                   u5g::Nanos round = kStackRound);
/// Rounds per UE of stack_mix.
[[nodiscard]] int stack_rounds(bool smoke);
/// Traffic span of `rounds` rounds plus a 20 ms drain.
[[nodiscard]] u5g::Nanos stack_horizon(int rounds);
/// The merged LBT gate statistics of one untimed stack_mix run.
[[nodiscard]] u5g::LbtGate::Stats stack_mix_lbt_stats(const RunOptions& opt);
/// serve_mix's working set: the Table 1 patterns x access modes x four
/// deadlines x two analytic models (idealised and a software stack).
[[nodiscard]] std::vector<u5g::FeasibilityQuery> serve_working_set();

[[nodiscard]] Result run_city(const RunOptions& opt);
[[nodiscard]] Result run_stack(const RunOptions& opt);
[[nodiscard]] Result run_serve(const RunOptions& opt);

/// Per-layer probes of the traced run for the layers no workload loop
/// measures itself: population, e2e, datapath, LBT, dynamic TDD and the
/// latency model, each driven through its public API at the sizes of the
/// workload it belongs to. Appends metrics to `r`.
void probe_layers(const RunOptions& opt, Result& r);
/// `sharded.*` from a reduced stack_mix engine (serve_mix has no engine).
void probe_sharded(const RunOptions& opt, Result& r);
/// `serve.*` from one traced pass of the serve_mix stream (the sim workloads
/// have no service).
void probe_serve(const RunOptions& opt, Result& r);

}  // namespace perfbench
