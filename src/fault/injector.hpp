#pragma once
// FaultInjector: the runtime of the scenario-scripted fault subsystem.
//
// Built once per E2eSystem (and therefore once per sharded cell) from
// `StackConfig::faults`. Each scenario owns an independent SplitMix64-seeded
// stream forked from a dedicated seeder — never from the main simulation
// stream — so configuring a fault cannot perturb any existing draw sequence,
// and an empty scenario list leaves the simulation bit-identical to a build
// without the subsystem.
//
// Query surface (all on the simulated clock, called in event order):
//   * channel_lost(now)      — Gilbert–Elliott loss draw (BurstLoss scenarios)
//   * processing_jitter(now) — extra OS-jitter per stack traversal (storms)
//   * bus_stall(now)         — added radio-bus transfer latency (stalls)
//   * upf_dropped(now) / upf_extra_delay(now) — core-network brown-outs
//
// Every injected event is tallied in `Counters`, the only count of it:
// core/e2e_system writes these tallies into its `fault.*` MetricsRegistry
// counters when the registry is read, and emits tracer spans so a Chrome
// trace shows which fault ate the budget.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "fault/scenario.hpp"

namespace u5g {

class FaultInjector {
 public:
  /// Injected-event tallies, one per fault effect.
  struct Counters {
    std::uint64_t burst_losses = 0;   ///< transmissions killed by a BurstLoss chain
    std::uint64_t storm_spikes = 0;   ///< traversals that drew positive storm jitter
    std::uint64_t bus_stalls = 0;     ///< radio transfers hit by a stall window
    std::uint64_t upf_drops = 0;      ///< packets dropped in a UPF outage
    std::uint64_t upf_delays = 0;     ///< packets delayed by a UPF outage
  };

  FaultInjector(const std::vector<FaultScenario>& scenarios, std::uint64_t seed) {
    // Dedicated seeder stream: fault streams are a function of (seed,
    // scenario index) only, independent of the main simulation Rng.
    Rng seeder(seed ^ kSeedSalt);
    sources_.reserve(scenarios.size());
    for (const FaultScenario& sc : scenarios) {
      Source src{sc, seeder.fork(), std::nullopt, std::nullopt};
      if (sc.kind == FaultKind::BurstLoss) {
        src.ge.emplace(sc.ge);
        has_burst_loss_ = true;
      } else if (sc.kind == FaultKind::OsJitterStorm) {
        src.storm.emplace(sc.storm, src.rng.fork());
      }
      sources_.push_back(std::move(src));
    }
  }

  [[nodiscard]] bool empty() const { return sources_.empty(); }

  /// True when any BurstLoss scenario is configured. The caller then routes
  /// *all* channel loss through `channel_lost` (the scenario replaces the
  /// i.i.d. `channel_loss` knob; i.i.d. is its degenerate single-state case).
  [[nodiscard]] bool models_channel_loss() const { return has_burst_loss_; }

  /// One transmission through every active BurstLoss chain. Chains step only
  /// while their window is active, so a window-gated burst leaves
  /// transmissions outside the window untouched (and loss-free).
  [[nodiscard]] bool channel_lost(Nanos now) {
    bool lost = false;
    for (Source& s : sources_) {
      if (!s.ge || !s.sc.window.active_at(now)) continue;
      if (s.ge->transmit_lost(s.rng)) lost = true;
    }
    if (lost) ++counters_.burst_losses;
    return lost;
  }

  /// Extra OS-scheduling jitter for one stack traversal starting at `now`:
  /// the sum of one draw from each active storm. Zero when no storm covers
  /// `now` (the common case — one window check per configured storm).
  [[nodiscard]] Nanos processing_jitter(Nanos now) {
    Nanos total{};
    for (Source& s : sources_) {
      if (!s.storm || !s.sc.window.active_at(now)) continue;
      total += s.storm->sample();
    }
    if (total > Nanos::zero()) ++counters_.storm_spikes;
    return total;
  }

  /// Added latency for one radio-bus transfer at `now` (sum of active
  /// stalls). Deterministic given `now` — stalls model a saturated bus, not
  /// a stochastic one; combine with an OsJitterStorm for noisy stalls.
  [[nodiscard]] Nanos bus_stall(Nanos now) {
    Nanos total{};
    for (const Source& s : sources_) {
      if (s.sc.kind != FaultKind::RadioBusStall || !s.sc.window.active_at(now)) continue;
      total += s.sc.bus_stall;
    }
    if (total > Nanos::zero()) ++counters_.bus_stalls;
    return total;
  }

  /// Per-packet drop draw against every active UPF outage.
  [[nodiscard]] bool upf_dropped(Nanos now) {
    bool dropped = false;
    for (Source& s : sources_) {
      if (s.sc.kind != FaultKind::UpfOutage || !s.sc.window.active_at(now)) continue;
      if (s.sc.upf_drop_prob > 0.0 && s.rng.bernoulli(s.sc.upf_drop_prob)) dropped = true;
    }
    if (dropped) ++counters_.upf_drops;
    return dropped;
  }

  /// Added forwarding latency from active UPF outages (for surviving packets).
  [[nodiscard]] Nanos upf_extra_delay(Nanos now) {
    Nanos total{};
    for (const Source& s : sources_) {
      if (s.sc.kind != FaultKind::UpfOutage || !s.sc.window.active_at(now)) continue;
      total += s.sc.upf_extra_delay;
    }
    if (total > Nanos::zero()) ++counters_.upf_delays;
    return total;
  }

  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  static constexpr std::uint64_t kSeedSalt = 0xfa01'75ee'd000'0001ULL;

  struct Source {
    FaultScenario sc;
    Rng rng;                             ///< scenario-owned stream (drop draws, GE)
    std::optional<GilbertElliott> ge;    ///< BurstLoss chain state
    std::optional<OsJitterModel> storm;  ///< OsJitterStorm sampler
  };

  std::vector<Source> sources_;
  Counters counters_{};
  bool has_burst_loss_ = false;
};

}  // namespace u5g
