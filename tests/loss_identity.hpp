// The loss-conservation identity, shared by every test that checks it: each
// offered packet ends in exactly one bucket,
//
//   offered == delivered + harq_dropped + stranded + pdcp_discards + upf_drops
//
// exact under one-packet-per-TB traffic (236-byte payloads fill one 256-byte
// TB per SDU, see test_fault.cpp), so a TB-level drop is a packet-level one.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "core/e2e_system.hpp"

namespace u5g::test {

inline void expect_loss_identity(const E2eSystem& sys, std::uint64_t offered) {
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
