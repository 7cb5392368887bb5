// Dynamic slot-format policy, end to end: DL preemption's loss accounting
// (the PR-5 identity extended with punctured_retx), the puncture mechanics
// themselves, the disabled policy's bitwise invisibility, and the sharded
// engine's cross-link coupling under 1/2/8-worker determinism. Scenario
// idiom follows test_fault.cpp (sequential rounds, one SDU per TB) and
// test_sharded.cpp (bitwise merge comparisons).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/e2e_system.hpp"
#include "fault/gilbert_elliott.hpp"
#include "fault/scenario.hpp"
#include "sim/sharded.hpp"
#include "loss_identity.hpp"
#include "tdd/dynamic_format.hpp"

using namespace u5g;
using namespace u5g::literals;
using u5g::test::enable_metrics;
using u5g::test::expect_loss_identity;

namespace {

/// Preemption scenario base: UE 0 is the URLLC bearer, UE 1 the eMBB one.
/// 236 payload bytes fill one 256-byte TB per SDU (see test_fault.cpp), so
/// TB-level outcomes map one-to-one onto packet-level accounting.
StackConfig preemption_config(std::uint64_t seed) {
  StackConfig cfg = StackConfig::testbed_grant_based(seed);
  cfg.num_ues = 2;
  cfg.payload_bytes = 236;
  cfg.dynamic_tdd.enabled = true;
  cfg.dynamic_tdd.preemption = true;
  enable_metrics(cfg);
  return cfg;
}

/// One round: an eMBB DL SDU, then a URLLC DL SDU 0.6 ms later — inside the
/// eMBB TB's staging lead (testbed radio_lead = 0.5 ms), so the eMBB window
/// is registered but not yet on the air when the URLLC data arrives. Rounds
/// are 4 ms apart: each drains before the next, keeping HARQ recovery
/// ordered (the regime the accounting identity is defined over).
void send_preemption_rounds(E2eSystem& sys, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    const Nanos base = 4_ms * r;
    sys.send_downlink_at(base, 1);
    sys.send_downlink_at(base + Nanos{600'000}, 0);
  }
}

}  // namespace

// ===========================================================================
// Loss accounting under the dynamic policy (PR-5 identity + punctured_retx)

TEST(DynamicTddAccountingTest, DlPreemptionKeepsIdentityExactly) {
  constexpr int kRounds = 60;
  E2eSystem sys(preemption_config(41));
  send_preemption_rounds(sys, kRounds);
  sys.run_until(4_ms * kRounds + 2000_ms);

  expect_loss_identity(sys, 2 * kRounds);
  // Punctured TBs re-enter HARQ — they are re-entries, never a terminal
  // bucket of their own, which is why the identity above stays exact.
  EXPECT_GT(sys.punctured_retx(), 0u);
  EXPECT_EQ(sys.stranded_drops(), 0u);
}

TEST(DynamicTddAccountingTest, DlPreemptionUnderBurstLossKeepsIdentity) {
  constexpr int kRounds = 60;
  StackConfig cfg = preemption_config(42);
  cfg.harq_max_tx = 2;
  cfg.faults = {
      FaultScenario::burst_loss(GilbertElliott::Params::matched_average(0.2, 6.0, 0.8))};
  E2eSystem sys(std::move(cfg));
  send_preemption_rounds(sys, kRounds);
  sys.run_until(4_ms * kRounds + 2000_ms);

  expect_loss_identity(sys, 2 * kRounds);
  EXPECT_GT(sys.punctured_retx(), 0u);
}

TEST(DynamicTddAccountingTest, UplinkGrantBasedWithPolicyUnderLoss) {
  StackConfig cfg = StackConfig::testbed_grant_based(43);
  cfg.payload_bytes = 236;
  cfg.channel_loss = 0.35;
  cfg.harq_max_tx = 2;
  cfg.dynamic_tdd.enabled = true;
  cfg.dynamic_tdd.preemption = true;
  enable_metrics(cfg);
  constexpr int kPackets = 80;
  E2eSystem sys(std::move(cfg));
  for (int i = 0; i < kPackets; ++i) sys.send_uplink_at(2_ms * i + Nanos{100'000});
  sys.run_until(2_ms * kPackets + 2000_ms);

  expect_loss_identity(sys, kPackets);
  EXPECT_GT(sys.harq_dropped_tbs(), 0u);  // loss 0.35, budget 2: drops happen
  EXPECT_EQ(sys.punctured_retx(), 0u);    // preemption is a DL mechanism
}

TEST(DynamicTddAccountingTest, UplinkGrantFreeWithPolicyUnderLoss) {
  StackConfig cfg = StackConfig::testbed_grant_free(44);
  cfg.payload_bytes = 236;
  cfg.channel_loss = 0.35;
  cfg.harq_max_tx = 2;
  cfg.dynamic_tdd.enabled = true;
  cfg.dynamic_tdd.preemption = true;
  enable_metrics(cfg);
  constexpr int kPackets = 80;
  E2eSystem sys(std::move(cfg));
  for (int i = 0; i < kPackets; ++i) sys.send_uplink_at(2_ms * i + Nanos{100'000});
  sys.run_until(2_ms * kPackets + 2000_ms);

  expect_loss_identity(sys, kPackets);
  EXPECT_GT(sys.harq_dropped_tbs(), 0u);
}

namespace {

/// Every optional loss and access feature on at once: NR-U LBT under
/// moderate Wi-Fi, dynamic TDD with DL preemption, Gilbert–Elliott burst
/// loss, a lossy UPF, and a two-transmission HARQ budget.
StackConfig all_features_on(StackConfig cfg) {
  cfg.payload_bytes = 236;
  cfg.harq_max_tx = 2;
  cfg.lbt.enabled = true;
  cfg.lbt.wifi_busy_mean = Nanos{60'000};
  cfg.lbt.wifi_idle_mean = Nanos{240'000};
  cfg.dynamic_tdd.enabled = true;
  cfg.dynamic_tdd.preemption = true;
  cfg.faults = {
      FaultScenario::burst_loss(GilbertElliott::Params::matched_average(0.1, 6.0, 0.8)),
      FaultScenario::upf_outage(FaultWindow::always(), 0.1, Nanos::zero())};
  enable_metrics(cfg);
  return cfg;
}

}  // namespace

TEST(CombinedFeatureAccountingTest, EveryFeatureOnKeepsIdentityExactly) {
  // The identity must hold for the feature combination, not only for each
  // feature alone: UL grant-based, UL grant-free, and two-UE DL preemption
  // rounds, every bucket exercised.
  constexpr int kPackets = 80;
  constexpr int kRounds = 60;
  std::uint64_t delivered = 0;
  std::uint64_t harq = 0;
  std::uint64_t upf = 0;
  std::uint64_t punctured = 0;
  const auto tally = [&](const E2eSystem& sys) {
    delivered += sys.packets_delivered();
    harq += sys.harq_dropped_tbs();
    upf += sys.fault_counters().upf_drops;
    punctured += sys.punctured_retx();
  };
  for (const std::uint64_t seed : {51u, 52u, 53u}) {
    for (const bool grant_free : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (grant_free ? " UL-GF" : " UL-GB"));
      E2eSystem sys(all_features_on(grant_free ? StackConfig::testbed_grant_free(seed)
                                               : StackConfig::testbed_grant_based(seed)));
      for (int i = 0; i < kPackets; ++i) sys.send_uplink_at(2_ms * i + Nanos{100'000});
      sys.run_until(2_ms * kPackets + 2000_ms);
      expect_loss_identity(sys, kPackets);
      tally(sys);
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + " DL preemption");
    E2eSystem sys(all_features_on(preemption_config(seed)));
    send_preemption_rounds(sys, kRounds);
    sys.run_until(4_ms * kRounds + 2000_ms);
    expect_loss_identity(sys, 2 * kRounds);
    tally(sys);
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(harq, 0u);
  EXPECT_GT(upf, 0u);
  EXPECT_GT(punctured, 0u);
}

// ===========================================================================
// Puncture mechanics

TEST(DynamicTddPreemptionTest, UrllcStealsStagedEmbbWindows) {
  constexpr int kRounds = 40;
  const auto run = [](bool preemption) {
    StackConfig cfg = preemption_config(45);
    cfg.dynamic_tdd.preemption = preemption;
    E2eSystem sys(std::move(cfg));
    send_preemption_rounds(sys, kRounds);
    sys.run_until(4_ms * kRounds + 2000_ms);
    return sys.punctured_retx();
  };
  EXPECT_EQ(0u, run(false));
  EXPECT_GT(run(true), 0u);
}

TEST(DynamicTddPreemptionTest, StolenWindowsShortenUrllcLatency) {
  constexpr int kRounds = 40;
  const auto urllc_total = [](bool preemption) {
    StackConfig cfg = preemption_config(46);
    cfg.dynamic_tdd.preemption = preemption;
    E2eSystem sys(std::move(cfg));
    send_preemption_rounds(sys, kRounds);
    sys.run_until(4_ms * kRounds + 2000_ms);
    Nanos total = Nanos::zero();
    for (int r = 0; r < kRounds; ++r) {
      const PacketRecord& rec = sys.records()[static_cast<std::size_t>(2 * r + 1)];
      EXPECT_TRUE(rec.ok) << "URLLC packet " << r << " undelivered";
      total += rec.latency();
    }
    return total;
  };
  // Identical arrivals, identical jitter streams: the only difference is the
  // stolen air windows, which can only move URLLC deliveries earlier.
  EXPECT_LT(urllc_total(true), urllc_total(false));
}

// ===========================================================================
// Disabled policy: bitwise invisibility

TEST(DynamicTddBaselineTest, DisabledPolicyLeavesRunsBitIdentical) {
  // Non-default knobs behind enabled=false must not perturb anything: no
  // wrapper, no decision events, no extra RNG draws.
  StackConfig plain_cfg = StackConfig::testbed_grant_based(47);
  StackConfig knobs_cfg = StackConfig::testbed_grant_based(47);
  knobs_cfg.dynamic_tdd.enabled = false;
  knobs_cfg.dynamic_tdd.preemption = true;
  knobs_cfg.dynamic_tdd.hold_slots = 64;
  knobs_cfg.dynamic_tdd.xlink_ul_bler = 0.4;

  E2eSystem plain(plain_cfg);
  E2eSystem knobs(knobs_cfg);
  for (E2eSystem* sys : {&plain, &knobs}) {
    for (int i = 0; i < 12; ++i) {
      sys->send_uplink_at(2_ms * i + Nanos{50'000});
      sys->send_downlink_at(2_ms * i + Nanos{1'050'000});
    }
    sys->run_until(2_ms * 12 + 200_ms);
  }
  const auto& a = plain.records();
  const auto& b = knobs.records();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(plain.packets_delivered(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ok, b[i].ok) << "record " << i;
    EXPECT_EQ(a[i].delivered.count(), b[i].delivered.count()) << "record " << i;
  }
  EXPECT_EQ(plain.simulator().events_fired(), knobs.simulator().events_fired());
  EXPECT_EQ(knobs.dynamic_upgraded_slots(), 0u);
  EXPECT_EQ(knobs.punctured_retx(), 0u);
  EXPECT_EQ(knobs.crosslink_ul_losses(), 0u);
}

// ===========================================================================
// Sharded engine: cross-link coupling, determinism, 1-cell identity

namespace {

/// Traffic that keeps every cell's added-DL activity up (eMBB DL backlog),
/// stages puncture victims, and sends UL through the neighbours' activity.
void send_xlink_rounds(ShardedEngine& eng, int cells, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    const Nanos base = 2_ms * (2 * r + 1);
    for (int c = 0; c < cells; ++c) {
      for (int b = 0; b < 4; ++b) eng.send_downlink_at(base + Nanos{b}, c, 1);
      eng.send_downlink_at(base + Nanos{600'000}, c, 0);
      eng.send_uplink_at(base + 1_ms + Nanos{7}, c, 0);
    }
  }
}

StackConfig xlink_scenario(std::uint64_t seed) {
  StackConfig cfg = StackConfig::testbed_grant_based(seed);
  cfg.num_ues = 2;
  cfg.num_cells = 3;
  cfg.intercell_load_coupling = 0.5;
  cfg.payload_bytes = 236;
  cfg.dynamic_tdd.enabled = true;
  cfg.dynamic_tdd.preemption = true;
  cfg.dynamic_tdd.hold_slots = 16;
  cfg.dynamic_tdd.xlink_ul_bler = 0.4;
  return cfg;
}

}  // namespace

TEST(DynamicTddShardedTest, CrossLinkCouplingDeterministicAcrossWorkers) {
  constexpr int kRounds = 24;
  std::vector<double> baseline;
  std::uint64_t base_delivered = 0, base_upgraded = 0, base_xlink = 0, base_punct = 0;
  for (int threads : {1, 2, 8}) {
    StackConfig cfg = xlink_scenario(48);
    ShardedEngine eng(cfg, ShardedOptions{threads});
    send_xlink_rounds(eng, cfg.num_cells, kRounds);
    eng.run_until(2_ms * (2 * kRounds + 12));

    SampleSet merged = eng.latency_samples_us(Direction::Uplink);
    merged.merge(eng.latency_samples_us(Direction::Downlink));
    if (threads == 1) {
      baseline = merged.samples();
      base_delivered = eng.packets_delivered();
      base_upgraded = eng.dynamic_upgraded_slots();
      base_xlink = eng.crosslink_ul_losses();
      base_punct = eng.punctured_retx();
      // The scenario must actually exercise the new machinery.
      ASSERT_GT(base_delivered, 0u);
      EXPECT_GT(base_upgraded, 0u);
      EXPECT_GT(base_xlink, 0u);
      EXPECT_GT(base_punct, 0u);
      continue;
    }
    EXPECT_EQ(baseline, merged.samples()) << "threads=" << threads;
    EXPECT_EQ(base_delivered, eng.packets_delivered()) << "threads=" << threads;
    EXPECT_EQ(base_upgraded, eng.dynamic_upgraded_slots()) << "threads=" << threads;
    EXPECT_EQ(base_xlink, eng.crosslink_ul_losses()) << "threads=" << threads;
    EXPECT_EQ(base_punct, eng.punctured_retx()) << "threads=" << threads;
  }
}

TEST(DynamicTddShardedTest, SingleCellDynamicReproducesE2eSystemExactly) {
  // With one cell there is no neighbour: the sharded run, dynamic policy and
  // preemption included, must equal the plain E2eSystem bit for bit.
  StackConfig cfg = xlink_scenario(49);
  cfg.num_cells = 1;

  E2eSystem plain(cfg);
  ShardedEngine sharded(cfg, ShardedOptions{1});
  ASSERT_EQ(1, sharded.num_cells());
  constexpr int kRounds = 16;
  for (int r = 0; r < kRounds; ++r) {
    const Nanos base = 4_ms * r;
    plain.send_downlink_at(base, 1);
    plain.send_downlink_at(base + Nanos{600'000}, 0);
    sharded.send_downlink_at(base, 0, 1);
    sharded.send_downlink_at(base + Nanos{600'000}, 0, 0);
  }
  const Nanos horizon = 4_ms * kRounds + 200_ms;
  plain.run_until(horizon);
  sharded.run_until(horizon);

  const auto& a = plain.records();
  const auto& b = sharded.cell(0).system().records();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(plain.punctured_retx(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ok, b[i].ok) << "record " << i;
    EXPECT_EQ(a[i].delivered.count(), b[i].delivered.count()) << "record " << i;
  }
  EXPECT_EQ(plain.punctured_retx(), sharded.punctured_retx());
  EXPECT_EQ(plain.dynamic_upgraded_slots(), sharded.dynamic_upgraded_slots());
  EXPECT_EQ(plain.crosslink_ul_losses(), sharded.crosslink_ul_losses());
  EXPECT_EQ(sharded.crosslink_ul_losses(), 0u);  // no neighbour, no hazard
}
