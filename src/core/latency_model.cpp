#include "core/latency_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace u5g {

namespace {

/// Step sink of a sweep probe: the protocol logic runs, nothing is kept.
struct NoSteps {};

void push_step(std::vector<TimelineStep>& steps, const char* label, Nanos start, Nanos end,
               LatencyCategory cat) {
  if (end > start) steps.push_back(TimelineStep{label, start, end, cat});
}

void push_step(NoSteps&, const char*, Nanos, Nanos, LatencyCategory) {}

/// What one trace yields: the completion time, and the hold time — the
/// latest arrival that still catches the same first-stage opportunity (the
/// UL data window for grant-free, the SR window for grant-based, the DL
/// data window for DL). "First opportunity at or after t" cannot change
/// while t stays at or before that opportunity's start, also under the
/// search-limit cut-off (the distance only shrinks as t grows), and
/// everything downstream depends only on that stage's result: so every
/// arrival in [arrival, hold] completes at `completion`.
struct Traced {
  Nanos completion;
  Nanos hold;
};

/// The hold time of a first-stage opportunity starting at `start`.
Nanos hold_until(Nanos start, const LatencyModelParams& p) {
  return start - (p.sender_processing + p.radio_tx);
}

// Each trace_* function traces a transmission arriving at `arrival`
// (nullopt when no opportunity exists) and reports its steps to `steps`: a
// step vector for trace_transmission, NoSteps for the worst-case sweep, so
// the protocol logic exists once.

template <class Steps>
std::optional<Traced> trace_grant_free_ul(const DuplexConfig& cfg, Nanos arrival,
                                         const LatencyModelParams& p, Steps& steps) {
  const Nanos ready = arrival + p.sender_processing + p.radio_tx;
  push_step(steps, "UE stack APP\xe2\x86\x93 (SDAP/PDCP/RLC/MAC/PHY)", arrival,
            arrival + p.sender_processing, LatencyCategory::Processing);
  push_step(steps, "UE radio TX chain", arrival + p.sender_processing, ready,
            LatencyCategory::Radio);

  const auto w = next_ul_tx(cfg, ready, p.data_tx_symbols);
  if (!w) return std::nullopt;
  push_step(steps, "wait for UL opportunity", ready, w->start, LatencyCategory::Protocol);
  push_step(steps, "UL data over the air", w->start, w->end, LatencyCategory::Protocol);

  const Nanos rx_done = w->end + p.radio_rx;
  push_step(steps, "gNB radio RX chain", w->end, rx_done, LatencyCategory::Radio);
  const Nanos completion = rx_done + p.receiver_processing;
  push_step(steps, "gNB stack MAC\xe2\x86\x91 (PHY/MAC/RLC/PDCP/SDAP)", rx_done, completion,
            LatencyCategory::Processing);
  return Traced{completion, hold_until(w->start, p)};
}

template <class Steps>
std::optional<Traced> trace_grant_based_ul(const DuplexConfig& cfg, Nanos arrival,
                                          const LatencyModelParams& p, Steps& steps) {
  const Nanos sr_ready = arrival + p.sender_processing + p.radio_tx;
  push_step(steps, "UE stack APP\xe2\x86\x93", arrival, arrival + p.sender_processing,
            LatencyCategory::Processing);
  push_step(steps, "UE radio TX chain", arrival + p.sender_processing, sr_ready,
            LatencyCategory::Radio);

  // 1. Scheduling request at the next UL symbol (footnote 2).
  const auto sr = next_ul_tx(cfg, sr_ready, p.sr_symbols);
  if (!sr) return std::nullopt;
  push_step(steps, "wait for SR opportunity", sr_ready, sr->start, LatencyCategory::Protocol);
  push_step(steps, "SR over the air", sr->start, sr->end, LatencyCategory::Protocol);

  // 2. gNB decodes the SR; the scheduler acts at its next per-granule run.
  const Nanos sr_known = sr->end + p.radio_rx + p.sr_decode;
  push_step(steps, "gNB SR decode (radio+PHY)", sr->end, sr_known, LatencyCategory::Processing);
  const Nanos decision = next_scheduler_run(cfg, sr_known);
  push_step(steps, "wait for scheduler run", sr_known, decision, LatencyCategory::Protocol);

  // 3. The UL grant rides the next DL control region.
  const auto ctrl = next_dl_control(cfg, decision);
  if (!ctrl) return std::nullopt;
  push_step(steps, "wait for DL control opportunity", decision, ctrl->start,
            LatencyCategory::Protocol);
  push_step(steps, "UL grant over the air", ctrl->start, ctrl->end, LatencyCategory::Protocol);

  // 4. UE decodes the grant and transmits at the next UL window.
  const Nanos grant_ready = ctrl->end + p.radio_rx + p.grant_decode + p.radio_tx;
  push_step(steps, "UE grant decode + prep", ctrl->end, grant_ready, LatencyCategory::Processing);
  const auto w = next_ul_tx(cfg, grant_ready, p.data_tx_symbols);
  if (!w) return std::nullopt;
  push_step(steps, "wait for granted UL window", grant_ready, w->start,
            LatencyCategory::Protocol);
  push_step(steps, "UL data over the air", w->start, w->end, LatencyCategory::Protocol);

  const Nanos rx_done = w->end + p.radio_rx;
  push_step(steps, "gNB radio RX chain", w->end, rx_done, LatencyCategory::Radio);
  const Nanos completion = rx_done + p.receiver_processing;
  push_step(steps, "gNB stack MAC\xe2\x86\x91", rx_done, completion, LatencyCategory::Processing);
  return Traced{completion, hold_until(sr->start, p)};
}

template <class Steps>
std::optional<Traced> trace_downlink(const DuplexConfig& cfg, Nanos arrival,
                                    const LatencyModelParams& p, Steps& steps) {
  const Nanos ready = arrival + p.sender_processing + p.radio_tx;
  push_step(steps, "gNB stack SDAP\xe2\x86\x93 (SDAP/PDCP/RLC)", arrival,
            arrival + p.sender_processing, LatencyCategory::Processing);
  push_step(steps, "gNB radio TX chain", arrival + p.sender_processing, ready,
            LatencyCategory::Radio);

  // Served in the first granule starting at or after readiness; the current
  // granule is already allocated (§5's DL worst-case rationale).
  const auto w = next_dl_data(cfg, ready);
  if (!w) return std::nullopt;
  push_step(steps, "wait for DL slot", ready, w->start, LatencyCategory::Protocol);
  push_step(steps, "DL data over the air", w->start, w->end, LatencyCategory::Protocol);

  const Nanos rx_done = w->end + p.radio_rx;
  push_step(steps, "UE radio RX chain", w->end, rx_done, LatencyCategory::Radio);
  const Nanos completion = rx_done + p.receiver_processing;
  push_step(steps, "UE stack PHY\xe2\x86\x91 (PHY..APP)", rx_done, completion,
            LatencyCategory::Processing);
  return Traced{completion, hold_until(w->start, p)};
}

template <class Steps>
std::optional<Traced> trace(const DuplexConfig& cfg, AccessMode mode, Nanos arrival,
                           const LatencyModelParams& p, Steps& steps) {
  switch (mode) {
    case AccessMode::GrantFreeUl: return trace_grant_free_ul(cfg, arrival, p, steps);
    case AccessMode::GrantBasedUl: return trace_grant_based_ul(cfg, arrival, p, steps);
    case AccessMode::Downlink: return trace_downlink(cfg, arrival, p, steps);
  }
  return std::nullopt;
}

}  // namespace

Nanos Timeline::category_total(LatencyCategory c) const {
  Nanos total = Nanos::zero();
  for (const TimelineStep& s : steps) {
    if (s.category == c) total += s.duration();
  }
  return total;
}

std::string Timeline::render() const {
  std::string out;
  for (const TimelineStep& s : steps) {
    out += "  [" + std::string(to_string(s.category)) + "] " + s.label + ": " +
           to_string(s.start - arrival) + " -> " + to_string(s.end - arrival) + " (+" +
           to_string(s.duration()) + ")\n";
  }
  out += "  total: " + to_string(latency()) + "\n";
  return out;
}

Timeline trace_transmission(const DuplexConfig& cfg, AccessMode mode, Nanos arrival,
                            const LatencyModelParams& p) {
  Timeline tl;
  tl.arrival = arrival;
  const std::optional<Traced> traced = trace(cfg, mode, arrival, p, tl.steps);
  if (!traced) {
    // An infeasible transmission reports no partial steps.
    tl.steps.clear();
    tl.completion = arrival;
    tl.feasible = false;
    return tl;
  }
  tl.completion = traced->completion;
  return tl;
}

void validate_sweep_inputs(const LatencyModelParams& p, int grid_per_symbol) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument{std::string{"worst-case sweep: "} + what + " must be >= 1"};
    }
  };
  require(grid_per_symbol >= 1, "grid_per_symbol");
  require(p.data_tx_symbols >= 1, "data_tx_symbols");
  require(p.sr_symbols >= 1, "sr_symbols");
}

WorstCaseResult analyze_worst_case(const DuplexConfig& cfg, AccessMode mode,
                                   const LatencyModelParams& p, int grid_per_symbol) {
  validate_sweep_inputs(p, grid_per_symbol);
  WorstCaseResult r;
  const SlotClock clk = cfg.clock();
  // Anchor the sweep away from t=0 so look-behind arithmetic stays positive.
  const Nanos base = cfg.period() * 8;
  const Nanos sym = clk.symbol_duration();

  double sum = 0.0;
  std::size_t n = 0;
  NoSteps no_steps;
  // The current run: every arrival in [run_from, run_to] completes at
  // run_done (see Traced). A probe outside it — past its hold time, or
  // below its start — is traced and opens the next run. Returns false at
  // the first infeasible probe, which ends the sweep.
  Nanos run_from{1};
  Nanos run_to{0};
  Nanos run_done{};
  auto probe = [&](Nanos offset) {
    const Nanos arrival = base + offset;
    if (arrival < run_from || arrival > run_to) {
      const std::optional<Traced> t = trace(cfg, mode, arrival, p, no_steps);
      if (!t) return false;
      run_from = arrival;
      run_to = t->hold;
      run_done = t->completion;
    }
    const Nanos lat = run_done - arrival;
    if (lat > r.worst) {
      r.worst = lat;
      r.worst_arrival_offset = offset;
    }
    r.best = std::min(r.best, lat);
    sum += static_cast<double>(lat.count());
    ++n;
    return true;
  };

  // Probe every symbol boundary of every slot in the period (computed the
  // same way SlotClock lays them out, so probes align with true boundaries),
  // the instant just after each ("just after a DL slot starts" is the
  // paper's worst case), and a uniform grid between boundaries. A grid
  // finer than 1 ns rounds its first points down to the boundary, below the
  // +1 ns probe: the run check takes any order.
  auto sweep = [&] {
    for (int slot = 0; slot < cfg.period_slots(); ++slot) {
      const Nanos slot_off = clk.slot_duration() * slot;
      for (int s = 0; s < kSymbolsPerSlot; ++s) {
        const Nanos boundary = slot_off + sym * s;
        if (!probe(boundary) || !probe(boundary + Nanos{1})) return false;
        for (int g = 1; g < grid_per_symbol; ++g) {
          if (!probe(boundary + sym * g / grid_per_symbol)) return false;
        }
      }
    }
    return true;
  };
  r.feasible = sweep();
  if (n > 0) r.mean = Nanos{static_cast<std::int64_t>(sum / static_cast<double>(n))};
  if (r.best == Nanos::max()) r.best = Nanos::zero();
  return r;
}

}  // namespace u5g
