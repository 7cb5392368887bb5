// The loss-conservation identity, shared by every test that checks it: each
// offered packet ends in exactly one bucket,
//
//   offered == delivered + harq_dropped + stranded + pdcp_discards + upf_drops
//
// exact under one-packet-per-TB traffic (236-byte payloads fill one 256-byte
// TB per SDU, see test_fault.cpp), so a TB-level drop is a packet-level one.
//
// With metrics on, the identity also checks the export path: every counter
// the system publishes must equal the source it is written from.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/e2e_system.hpp"

namespace u5g::test {

/// Metrics on, spans off: an identity test that turns this on also checks
/// the counter export (expect_published_counters) at no span cost.
inline void enable_metrics(StackConfig& cfg) {
  cfg.trace.enabled = true;
  cfg.trace.spans = false;
}

/// Every published counter against its source: the system's accessors, the
/// delivered records, and the fault injector's own tallies. Nothing to check
/// when metrics are off (the registry is empty then: no live histograms).
inline void expect_published_counters(const E2eSystem& sys) {
  if (sys.metrics().histograms().empty()) return;
  const auto& counters = sys.metrics().counters();
  const auto published = [&](const std::string& name) -> std::uint64_t {
    const auto it = counters.find(name);
    EXPECT_NE(it, counters.end()) << name << " is not published";
    return it == counters.end() ? 0 : it->second.value();
  };
  std::uint64_t retransmissions = 0;
  for (const PacketRecord& r : sys.records()) {
    if (r.ok) retransmissions += static_cast<std::uint64_t>(r.harq_transmissions - 1);
  }
  EXPECT_EQ(published("packets.ul_sent") + published("packets.dl_sent"), sys.packets_started());
  EXPECT_EQ(published("packets.delivered"), sys.packets_delivered());
  EXPECT_EQ(published("packets.harq_retransmissions"), retransmissions);
  EXPECT_EQ(published("harq.dropped_tbs"), sys.harq_dropped_tbs());
  EXPECT_EQ(published("harq.stranded_drops"), sys.stranded_drops());
  EXPECT_EQ(published("pdcp.discards"), sys.pdcp_discards());
  EXPECT_EQ(published("radio.deadline_misses"), sys.radio_deadline_misses());
  (void)published("mac.missed_grants");  // no accessor: presence only
  const FaultInjector::Counters f = sys.fault_counters();
  EXPECT_EQ(published("fault.burst_losses"), f.burst_losses);
  EXPECT_EQ(published("fault.os_jitter_storms"), f.storm_spikes);
  EXPECT_EQ(published("fault.radio_bus_stalls"), f.bus_stalls);
  EXPECT_EQ(published("fault.upf_drops"), f.upf_drops);
  EXPECT_EQ(published("fault.upf_delays"), f.upf_delays);
  // The dynamic-TDD pair is published as a pair (only with the policy on);
  // without it neither side tally can move.
  if (counters.contains("harq.punctured_retx")) {
    EXPECT_EQ(published("harq.punctured_retx"), sys.punctured_retx());
    EXPECT_EQ(published("xlink.ul_losses"), sys.crosslink_ul_losses());
    EXPECT_EQ(counters.size(), 16u) << "a counter outside the published set";
  } else {
    EXPECT_FALSE(counters.contains("xlink.ul_losses"));
    EXPECT_EQ(sys.punctured_retx(), 0u);
    EXPECT_EQ(sys.crosslink_ul_losses(), 0u);
    EXPECT_EQ(counters.size(), 14u) << "a counter outside the published set";
  }
}

inline void expect_loss_identity(const E2eSystem& sys, std::uint64_t offered) {
  expect_published_counters(sys);
  std::uint64_t delivered = 0;
  for (const PacketRecord& r : sys.records()) delivered += r.ok ? 1 : 0;
  EXPECT_EQ(delivered, sys.packets_delivered());
  EXPECT_EQ(offered, delivered + sys.harq_dropped_tbs() + sys.stranded_drops() +
                         sys.pdcp_discards() + sys.fault_counters().upf_drops)
      << "silent packet loss: some offered packet ended in no bucket (delivered " << delivered
      << ", harq " << sys.harq_dropped_tbs() << ", stranded " << sys.stranded_drops()
      << ", pdcp " << sys.pdcp_discards() << ", upf " << sys.fault_counters().upf_drops << ")";
}

}  // namespace u5g::test
