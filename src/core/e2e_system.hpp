#pragma once
// End-to-end 5G system simulation: the executable twin of the §7 testbed.
//
// One UE, one gNB, a UPF, a duplex configuration, and the full protocol
// machinery: SDAP/PDCP/RLC entities do real header/cipher/segmentation work,
// the MAC runs the SR-grant handshake or configured grants, PHY timing and
// radio-bus models add their (jittered) costs, and every packet's journey is
// recorded step by step. Fig 6's latency distributions and Table 2's
// per-layer times are read directly off the records this produces.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "core/stack_config.hpp"
#include "fault/injector.hpp"
#include "node/stack.hpp"
#include "sim/simulator.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace u5g {

enum class Direction { Uplink, Downlink };

[[nodiscard]] constexpr const char* to_string(Direction d) {
  return d == Direction::Uplink ? "UL" : "DL";
}

/// Everything measured about one packet. Fields run from widest to narrowest
/// so the record has no padding holes: one is kept per offered packet.
struct PacketRecord {
  std::array<Nanos, 6> gnb_layer_time{};  ///< indexed by static_cast<int>(Layer)
  Nanos created{};
  Nanos delivered{};
  int seq = -1;
  int ue = 0;
  Direction dir = Direction::Uplink;
  int harq_transmissions = 1;
  bool ok = false;

  [[nodiscard]] Nanos latency() const { return delivered - created; }
};

/// The running system.
class E2eSystem {
 public:
  explicit E2eSystem(StackConfig cfg);
  ~E2eSystem();
  E2eSystem(const E2eSystem&) = delete;
  E2eSystem& operator=(const E2eSystem&) = delete;

  /// Inject an uplink packet at UE `ue`'s application layer at time `at`.
  void send_uplink_at(Nanos at, int ue = 0);
  /// Inject a downlink packet for UE `ue` at the UPF at `at`.
  void send_downlink_at(Nanos at, int ue = 0);

  /// Run the simulation until `until` (or until idle).
  void run_until(Nanos until);

  [[nodiscard]] const std::vector<PacketRecord>& records() const { return records_; }
  [[nodiscard]] Simulator& simulator();
  [[nodiscard]] const Simulator& simulator() const;

  // -- Observability --------------------------------------------------------

  /// Per-packet span tracer (recording iff `StackConfig::trace.spans_on()`).
  [[nodiscard]] Tracer& tracer();
  [[nodiscard]] const Tracer& tracer() const;
  /// Counters + latency histograms (present iff `trace.metrics_on()`);
  /// mergeable across replications. Histograms record live; the counters
  /// are written from the system's one outcome tally (and the fault
  /// injector's) on every call, so a read is always current.
  [[nodiscard]] MetricsRegistry& metrics();
  [[nodiscard]] const MetricsRegistry& metrics() const;

  // -- Aggregations ---------------------------------------------------------

  /// Latency samples (µs) of delivered packets in one direction.
  [[nodiscard]] SampleSet latency_samples_us(Direction dir) const;
  /// Per-layer gNB processing stats (µs) across all packets — Table 2.
  [[nodiscard]] RunningStats gnb_layer_stats_us(Layer layer) const;
  /// RLC queue waiting time stats (µs) — Table 2's RLC-q.
  [[nodiscard]] RunningStats rlc_queue_stats_us() const;
  /// Delivered fraction within `deadline` — the reliability figure of §6.
  [[nodiscard]] double reliability_at(Direction dir, Nanos deadline) const;
  /// DL transmissions whose samples missed the air deadline (§4).
  [[nodiscard]] std::uint64_t radio_deadline_misses() const;

  // -- Loss accounting ------------------------------------------------------
  // Every offered packet ends in exactly one bucket: delivered, dropped on
  // HARQ budget exhaustion, dropped stranded (no retransmission opportunity
  // within the retry cap), refused by PDCP, or dropped by a UPF outage.
  // Tests assert `offered == delivered + harq_dropped + stranded +
  // pdcp_discards + upf_dropped` (tests/loss_identity.hpp) under
  // 1-packet-per-TB traffic, so silent loss cannot deflate reliability.
  // Each count is stored once, in one tally; these accessors and the
  // published metrics both read it (the UPF drops: FaultInjector).

  /// TBs dropped after exhausting the HARQ transmission budget (UL and DL).
  [[nodiscard]] std::uint64_t harq_dropped_tbs() const;
  /// TBs/SDUs dropped after the stranded-retry cap: no opportunity found.
  [[nodiscard]] std::uint64_t stranded_drops() const;
  /// PDUs PDCP-rx refused terminally: stale (the t-Reordering flush already
  /// advanced past their COUNT — recovery took longer than the flush timer),
  /// duplicate, or integrity-failed. Without this bucket a late-but-
  /// successful HARQ recovery can still lose its packet silently.
  [[nodiscard]] std::uint64_t pdcp_discards() const;
  /// eMBB DL TBs whose air window a URLLC arrival punctured and that
  /// re-entered HARQ (dynamic_tdd.preemption). Punctures are re-entries,
  /// never terminal: the identity above stays exact with this on the side.
  [[nodiscard]] std::uint64_t punctured_retx() const;
  /// UL transmissions lost to neighbouring-cell cross-link interference
  /// (dynamic_tdd.xlink_ul_bler × neighbour DL-upgrade activity).
  [[nodiscard]] std::uint64_t crosslink_ul_losses() const;
  /// Injected-fault tallies (all zero when `StackConfig::faults` is empty).
  [[nodiscard]] FaultInjector::Counters fault_counters() const;

  /// Cell-wide MAC backlog, tallied by word-at-a-time scans over the
  /// struct-of-arrays UE pool (mac/ue_pool.hpp) rather than a walk over the
  /// per-UE contexts.
  struct MacBacklog {
    std::size_t sr_pending = 0;    ///< UEs with a scheduling request latched
    std::size_t cg_armed = 0;      ///< UEs with a configured-grant service queued
    std::size_t retx_ues = 0;      ///< UEs with HARQ retransmissions pending
    std::size_t retx_tbs = 0;      ///< total queued retransmission TBs
  };
  [[nodiscard]] MacBacklog mac_backlog() const;

  /// Slot-scoped scratch arena for this cell. Everything allocated from it
  /// dies at the next slot barrier: run_until() epoch-resets it after the
  /// window drains, so batch drivers (and the sharded engine, which advances
  /// cells in slot windows) get warm, heap-free scratch every slot.
  [[nodiscard]] Arena& slot_arena();

  // -- Scale-out hooks (sim/sharded.hpp) ------------------------------------

  /// Packets whose injection event has fired / whose delivery completed.
  /// `started - delivered` is the cell's in-flight load, the signal shards
  /// exchange at slot boundaries.
  [[nodiscard]] std::uint64_t packets_started() const;
  [[nodiscard]] std::uint64_t packets_delivered() const;
  /// Load the gNB's processing as if `extra_ues` additional UEs were
  /// attached (on top of `num_ues`), through `gnb_load_factor_per_ue`. The
  /// sharded engine applies the neighbour-cell load signal here at every
  /// slot barrier.
  void set_external_load_ues(double extra_ues);

  // -- Dynamic TDD (tdd/dynamic_format.hpp) ---------------------------------
  // All of these are inert when `StackConfig::dynamic_tdd.enabled` is false:
  // no decision events, no extra RNG draws, activity pinned at zero.

  /// The duplex map the MAC actually schedules against: the committed
  /// dynamic overlay when the policy is enabled, the static config otherwise.
  [[nodiscard]] const DuplexConfig& effective_duplex() const;
  /// Slots committed with at least one upgraded symbol so far.
  [[nodiscard]] std::uint64_t dynamic_upgraded_slots() const;
  /// Added-DL symbol fraction of the most recently committed slot — the
  /// cross-link interference a neighbouring cell's uplink faces.
  [[nodiscard]] double dl_upgrade_activity() const;
  /// Aggregate neighbour DL-upgrade activity, set by the sharded engine at
  /// slot barriers; scales UL loss by `dynamic_tdd.xlink_ul_bler`.
  void set_crosslink_dl_activity(double aggregate_activity);

  // -- NR-U channel access (phy/lbt.hpp) ------------------------------------
  // Inert when `StackConfig::lbt.enabled` is false: no gate exists, stats
  // are all-zero, and `wifi_busy_until` reports no modeled Wi-Fi airtime.

  /// CAT4 gate counters: attempts, deferrals, CW transitions, hidden
  /// collisions, and airtime tallies. All-zero when LBT is disabled.
  [[nodiscard]] LbtGate::Stats lbt_stats() const;
  /// Modeled Wi-Fi busy airtime on [0, horizon) (generates the load process
  /// up to `horizon` when LBT is enabled; 0 otherwise). Non-const: it may
  /// extend the deterministic renewal stream.
  [[nodiscard]] Nanos wifi_busy_until(Nanos horizon);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::vector<PacketRecord> records_;

  friend struct Impl;
};

}  // namespace u5g
