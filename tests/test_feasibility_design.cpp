// Tests for the Table 1 builder, the design-space explorer, and the
// reliability helpers.

#include <gtest/gtest.h>

#include "core/design_space.hpp"
#include "core/feasibility.hpp"
#include "tdd/slot_format.hpp"
#include "core/reliability.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// Table 1 builder

TEST(Table1Test, FiveColumnsThreeCells) {
  const Table1 t = build_table1();
  ASSERT_EQ(t.columns.size(), 5u);
  for (const FeasibilityColumn& col : t.columns) {
    EXPECT_EQ(col.cells.size(), 3u);
    EXPECT_FALSE(col.period_render.empty());
  }
}

TEST(Table1Test, OnlyDmViableAmongMinimalTddForBothDirections) {
  // §5's headline: "only one configuration, DM, satisfies the latency
  // requirements of URLLC on both downlink and uplink for the grant-free
  // scenario" — among the minimal TDD Common Configurations.
  const Table1 t = build_table1();
  int viable_tdd = 0;
  std::string which;
  for (const FeasibilityColumn& col : t.columns) {
    if (col.config_name.find("TDD-Common") == std::string::npos) continue;
    const bool both = col.cell(AccessMode::GrantFreeUl).meets_deadline &&
                      col.cell(AccessMode::Downlink).meets_deadline;
    if (both) {
      ++viable_tdd;
      which = col.config_name;
    }
  }
  EXPECT_EQ(viable_tdd, 1);
  EXPECT_EQ(which, "TDD-Common(DM)");
}

TEST(Table1Test, MiniSlotCarriesStandardsCaveat) {
  const Table1 t = build_table1();
  bool found = false;
  for (const FeasibilityColumn& col : t.columns) {
    if (col.config_name.find("MiniSlot") != std::string::npos) {
      EXPECT_TRUE(col.standards_caveat);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Table1Test, UnknownModeThrows) {
  const Table1 t = build_table1();
  EXPECT_NO_THROW((void)t.columns.front().cell(AccessMode::Downlink));
}

TEST(Table1Test, LooserDeadlineFlipsVerdicts) {
  // At a 1 ms one-way deadline even DU's downlink (worst 0.75 ms) passes.
  const Table1 loose = build_table1(1_ms);
  for (const FeasibilityColumn& col : loose.columns) {
    if (col.config_name == "TDD-Common(DU)") {
      EXPECT_TRUE(col.cell(AccessMode::Downlink).meets_deadline);
    }
  }
}

TEST(Table1Test, TighterDeadlineKillsEverything) {
  // 50 µs one-way: nothing slot-based survives (even mini-slot needs ~70 µs).
  const Table1 tight = build_table1(Nanos{50'000});
  for (const FeasibilityColumn& col : tight.columns) {
    for (const FeasibilityCell& cell : col.cells) {
      EXPECT_FALSE(cell.meets_deadline) << col.config_name;
    }
  }
}

TEST(Table1Test, SlotFormatConfigsEvaluateThroughTheSameMachinery) {
  // The feasibility checker is config-agnostic: TS 38.213 slot-format
  // sequences slot directly in. Format 28 (DDDDDDDDDDDDFU) gives every slot
  // one UL symbol — grant-free UL becomes per-slot cheap while DL keeps the
  // full-slot cost.
  const SlotFormatConfig alternating{kMu2, {28}};
  // One UL symbol per slot: data transmissions must fit one symbol (the
  // default 2-symbol transmission has no contiguous window here).
  LatencyModelParams p;
  p.data_tx_symbols = 1;
  const FeasibilityColumn col = evaluate_config(alternating, 500_us, p);
  EXPECT_TRUE(col.cell(AccessMode::GrantFreeUl).meets_deadline);
  // Worst case for 1-symbol-per-slot UL: just under two slots.
  const auto gf = analyze_worst_case(alternating, AccessMode::GrantFreeUl, p);
  EXPECT_LT(gf.worst, 510_us);

  // A DL-only sequence is infeasible for uplink and says so.
  const SlotFormatConfig dl_only{kMu2, {0}};
  const FeasibilityColumn col2 = evaluate_config(dl_only, 500_us);
  EXPECT_FALSE(col2.cell(AccessMode::GrantFreeUl).meets_deadline);
  EXPECT_FALSE(col2.cell(AccessMode::GrantFreeUl).worst_case.feasible);
  EXPECT_TRUE(col2.cell(AccessMode::Downlink).meets_deadline);
}

// ---------------------------------------------------------------------------
// Design space

TEST(DesignSpaceTest, EnumeratesFr1Candidates) {
  const auto all = explore_design_space({});
  // µ0: mini-slot + FDD only (no 2-slot 0.5 ms pattern) = 2 configs x 2 UL
  // modes; µ1: same; µ2: 5 configs x 2 modes. Total 2*2 + 2*2 + 5*2 = 18.
  EXPECT_EQ(all.size(), 18u);
}

TEST(DesignSpaceTest, ViableSetIsSmallAndContainsDmGrantFree) {
  const auto viable = viable_designs({});
  EXPECT_FALSE(viable.empty());
  EXPECT_LT(viable.size(), 10u);  // "the set of possible system designs is quite limited"
  bool dm_gf = false;
  for (const DesignPoint& pt : viable) {
    EXPECT_LE(pt.worst_ul, kUrllcOneWayDeadline);
    EXPECT_LE(pt.worst_dl, kUrllcOneWayDeadline);
    if (pt.config_name == "TDD-Common(DM)" && pt.ul_mode == AccessMode::GrantFreeUl) dm_gf = true;
  }
  EXPECT_TRUE(dm_gf);
}

TEST(DesignSpaceTest, NoMu0Or1SlotBasedPointSurvives) {
  // §5: "only the 0.25 ms slot duration can feasibly achieve the URLLC
  // requirements" among slot-based FR1 options (mini-slot is sub-slot).
  for (const DesignPoint& pt : viable_designs({})) {
    if (pt.config_name.find("MiniSlot") != std::string::npos) continue;
    EXPECT_EQ(pt.mu, 2) << pt.config_name;
  }
}

TEST(DesignSpaceTest, FddFlaggedUnavailableToPrivate5g) {
  for (const DesignPoint& pt : explore_design_space({})) {
    EXPECT_EQ(pt.available_to_private_5g, pt.config_name != "FDD") << pt.config_name;
  }
}

TEST(DesignSpaceTest, ProcessingBudgetIsOneSlot) {
  for (const DesignPoint& pt : explore_design_space({})) {
    EXPECT_EQ(pt.processing_radio_budget, Numerology{pt.mu}.slot_duration());
  }
}

// ---------------------------------------------------------------------------
// Reliability

TEST(ReliabilityTest, CleanSamplesMeetTargets) {
  SampleSet s;
  for (int i = 0; i < 100'000; ++i) s.add(100.0);  // all at 100 µs
  const auto r = evaluate_reliability(s, 100'000, 500_us);
  EXPECT_DOUBLE_EQ(r.fraction_within, 1.0);
  EXPECT_TRUE(r.meets_urllc);
  EXPECT_TRUE(r.meets_strict);
  EXPECT_DOUBLE_EQ(r.nines, 9.0);
}

TEST(ReliabilityTest, LossChargedAgainstReliability) {
  SampleSet s;
  for (int i = 0; i < 9'999; ++i) s.add(100.0);
  // One of 10'000 offered packets was never delivered.
  const auto r = evaluate_reliability(s, 10'000, 500_us);
  EXPECT_NEAR(r.fraction_within, 0.9999, 1e-9);
  EXPECT_TRUE(r.meets_urllc);
  EXPECT_FALSE(r.meets_strict);
  EXPECT_NEAR(r.nines, 4.0, 0.01);
}

TEST(ReliabilityTest, LateDeliveriesCount) {
  SampleSet s;
  for (int i = 0; i < 96; ++i) s.add(100.0);
  for (int i = 0; i < 4; ++i) s.add(10'000.0);  // delivered but late
  const auto r = evaluate_reliability(s, 100, 500_us);
  EXPECT_NEAR(r.fraction_within, 0.96, 1e-12);
  EXPECT_FALSE(r.meets_urllc);
}

TEST(ReliabilityTest, NinesClamps) {
  EXPECT_DOUBLE_EQ(reliability_nines(0.0), 0.0);
  EXPECT_DOUBLE_EQ(reliability_nines(1.0), 9.0);
  EXPECT_NEAR(reliability_nines(0.999), 3.0, 1e-9);
  // The paper's targets.
  EXPECT_NEAR(reliability_nines(kUrllcReliabilityTarget), 4.0, 1e-6);
  EXPECT_NEAR(reliability_nines(kUrllcStrictReliability), 5.0, 1e-6);
}

TEST(ReliabilityTest, EmptyOffered) {
  SampleSet s;
  const auto r = evaluate_reliability(s, 0, 500_us);
  EXPECT_DOUBLE_EQ(r.fraction_within, 0.0);
  EXPECT_FALSE(r.meets_urllc);
}

}  // namespace
}  // namespace u5g
