// Tests of the analytic latency engine — the executable form of §5.
// These encode the paper's published numbers: every Table 1 verdict, the
// Fig 4 worst cases, and structural invariants of the timelines.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/latency_model.hpp"
#include "duplex_kinds.hpp"
#include "tdd/common_config.hpp"
#include "tdd/fdd.hpp"
#include "tdd/mini_slot.hpp"
#include "tdd/slot_format.hpp"

// Global allocation counter: analyze_worst_case claims zero heap
// allocations, and that claim is tested below. Counting replacement of the
// global operator new/delete; the tests read it between statements of one
// thread, so the atomic is plenty. Out of line, so that GCC does not pair
// an inlined malloc with a free and warn -Wmismatched-new-delete.
namespace {
std::atomic<std::size_t> g_allocs{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace u5g {
namespace {

using namespace u5g::literals;

std::unique_ptr<DuplexConfig> make_config(const std::string& name) {
  if (name == "DU") return std::make_unique<TddCommonConfig>(TddCommonConfig::du(kMu2));
  if (name == "DM") return std::make_unique<TddCommonConfig>(TddCommonConfig::dm(kMu2));
  if (name == "MU") return std::make_unique<TddCommonConfig>(TddCommonConfig::mu(kMu2));
  if (name == "MiniSlot") return std::make_unique<MiniSlotConfig>(kMu2, 2);
  return std::make_unique<FddConfig>(kMu2);
}

// ---------------------------------------------------------------------------
// Table 1: all fifteen verdicts

struct Table1Case {
  const char* config;
  AccessMode mode;
  bool paper_meets;  // Table 1's checkmark
};

class Table1Test : public ::testing::TestWithParam<Table1Case> {};

TEST_P(Table1Test, VerdictMatchesPaper) {
  const auto& c = GetParam();
  const auto cfg = make_config(c.config);
  const WorstCaseResult wc = analyze_worst_case(*cfg, c.mode, {});
  ASSERT_TRUE(wc.feasible);
  EXPECT_EQ(wc.worst <= kUrllcOneWayDeadline, c.paper_meets)
      << c.config << " " << to_string(c.mode) << " worst=" << wc.worst.ms() << "ms";
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable1, Table1Test,
    ::testing::Values(
        // Grant-based UL row: only Mini-slot and FDD meet the deadline.
        Table1Case{"DU", AccessMode::GrantBasedUl, false},
        Table1Case{"DM", AccessMode::GrantBasedUl, false},
        Table1Case{"MU", AccessMode::GrantBasedUl, false},
        Table1Case{"MiniSlot", AccessMode::GrantBasedUl, true},
        Table1Case{"FDD", AccessMode::GrantBasedUl, true},
        // Grant-free UL row: every configuration meets it.
        Table1Case{"DU", AccessMode::GrantFreeUl, true},
        Table1Case{"DM", AccessMode::GrantFreeUl, true},
        Table1Case{"MU", AccessMode::GrantFreeUl, true},
        Table1Case{"MiniSlot", AccessMode::GrantFreeUl, true},
        Table1Case{"FDD", AccessMode::GrantFreeUl, true},
        // DL row: DM, Mini-slot and FDD meet it; DU and MU do not.
        Table1Case{"DU", AccessMode::Downlink, false},
        Table1Case{"DM", AccessMode::Downlink, true},
        Table1Case{"MU", AccessMode::Downlink, false},
        Table1Case{"MiniSlot", AccessMode::Downlink, true},
        Table1Case{"FDD", AccessMode::Downlink, true}),
    [](const auto& info) {
      return std::string{info.param.config} + "_" +
             (info.param.mode == AccessMode::GrantBasedUl  ? "GrantBased"
              : info.param.mode == AccessMode::GrantFreeUl ? "GrantFree"
                                                           : "Downlink");
    });

// ---------------------------------------------------------------------------
// Fig 4: the DM worst cases

TEST(Fig4Test, DmDownlinkWorstIsExactlyHalfMs) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const auto wc = analyze_worst_case(dm, AccessMode::Downlink, {});
  // "the worst-case latency of 0.5 ms is achieved": arrival just after the
  // M slot starts -> served in the next D slot, completing one period later.
  EXPECT_NEAR(wc.worst.ms(), 0.5, 0.001);
  EXPECT_LE(wc.worst, kUrllcOneWayDeadline);
}

TEST(Fig4Test, DmGrantFreeMeetsWithHeadroom) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const auto wc = analyze_worst_case(dm, AccessMode::GrantFreeUl, {});
  EXPECT_LE(wc.worst, kUrllcOneWayDeadline);
  EXPECT_GT(wc.worst, 300_us);  // waiting through D + guard is real
}

TEST(Fig4Test, DmGrantBasedCrossesIntoNextPeriod) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const auto wc = analyze_worst_case(dm, AccessMode::GrantBasedUl, {});
  // The SR/grant handshake pushes the data into the next TDD period: the
  // worst case lands between 1.5x and 2x the period.
  EXPECT_GT(wc.worst, 750_us);
  EXPECT_LT(wc.worst, 1_ms);
}

TEST(Fig4Test, WorstCaseArrivalIsJustAfterAnOpportunity) {
  // The paper's rationale: the DL worst case arrives "just after a DL slot
  // starts". Verify the attaining offset for DM DL is just after the M slot
  // boundary (the last DL service opportunity of the period).
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const auto wc = analyze_worst_case(dm, AccessMode::Downlink, {});
  EXPECT_NEAR(wc.worst_arrival_offset.ms(), 0.25, 0.02);
}

// ---------------------------------------------------------------------------
// Timeline invariants

class TimelineInvariantTest
    : public ::testing::TestWithParam<std::tuple<const char*, AccessMode>> {};

TEST_P(TimelineInvariantTest, StepsAreContiguousAndCategorised) {
  const auto [name, mode] = GetParam();
  const auto cfg = make_config(name);
  LatencyModelParams p;
  p.sender_processing = 20_us;
  p.receiver_processing = 30_us;
  p.radio_tx = 10_us;
  p.radio_rx = 15_us;
  p.grant_decode = 25_us;
  p.sr_decode = 12_us;

  for (Nanos offset : {Nanos{1}, Nanos{100'000}, Nanos{250'001}, Nanos{333'333}}) {
    const Timeline tl = trace_transmission(*cfg, mode, cfg->period() * 8 + offset, p);
    ASSERT_TRUE(tl.feasible);
    ASSERT_FALSE(tl.steps.empty());
    // Steps tile [arrival, completion] without gaps or overlaps.
    EXPECT_EQ(tl.steps.front().start, tl.arrival);
    EXPECT_EQ(tl.steps.back().end, tl.completion);
    for (std::size_t i = 1; i < tl.steps.size(); ++i) {
      EXPECT_EQ(tl.steps[i].start, tl.steps[i - 1].end) << "gap before step " << i;
    }
    // Category totals account for the full latency.
    const Nanos sum = tl.category_total(LatencyCategory::Protocol) +
                      tl.category_total(LatencyCategory::Processing) +
                      tl.category_total(LatencyCategory::Radio);
    EXPECT_EQ(sum, tl.latency());
    EXPECT_GE(tl.latency(), Nanos::zero());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsModes, TimelineInvariantTest,
    ::testing::Combine(::testing::Values("DU", "DM", "MU", "MiniSlot", "FDD"),
                       ::testing::Values(AccessMode::GrantBasedUl, AccessMode::GrantFreeUl,
                                         AccessMode::Downlink)));

TEST(TimelineTest, ProcessingShiftsCompletion) {
  const FddConfig fdd{kMu2};
  LatencyModelParams base;
  LatencyModelParams slow = base;
  slow.receiver_processing = 100_us;
  const Nanos at = fdd.period() * 8 + 1_ns;
  const Timeline t0 = trace_transmission(fdd, AccessMode::Downlink, at, base);
  const Timeline t1 = trace_transmission(fdd, AccessMode::Downlink, at, slow);
  EXPECT_EQ(t1.latency() - t0.latency(), 100_us);
}

TEST(TimelineTest, RadioLatencyCostIsQuantisedToSlots) {
  // §4's bottleneck interdependency: radio latency does not add smoothly —
  // it pushes readiness past granule boundaries, so its cost arrives in
  // whole-slot quanta. From an arrival just after a slot start:
  //   10 µs of radio  -> same slot still caught: zero added latency;
  //   260 µs (> slot) -> one boundary crossed: exactly one slot added;
  //   510 µs          -> two boundaries crossed: exactly two slots added.
  const FddConfig fdd{kMu2};
  const Nanos at = fdd.period() * 8 + 1_ns;
  auto completion_with_radio = [&](Nanos radio) {
    LatencyModelParams p;
    p.radio_tx = radio;
    return trace_transmission(fdd, AccessMode::Downlink, at, p).completion;
  };
  const Nanos base = completion_with_radio(0_ns);
  EXPECT_EQ(completion_with_radio(10_us) - base, Nanos::zero());
  EXPECT_EQ(completion_with_radio(260_us) - base, 250_us);
  EXPECT_EQ(completion_with_radio(510_us) - base, 500_us);
}

TEST(TimelineTest, GrantBasedContainsHandshakeSteps) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  const Timeline tl =
      trace_transmission(dm, AccessMode::GrantBasedUl, dm.period() * 8 + 1_ns, {});
  const std::string rendered = tl.render();
  EXPECT_NE(rendered.find("SR over the air"), std::string::npos);
  EXPECT_NE(rendered.find("UL grant over the air"), std::string::npos);
  EXPECT_NE(rendered.find("UL data over the air"), std::string::npos);
}

TEST(TimelineTest, InfeasibleConfigReported) {
  const SlotFormatConfig all_dl{kMu2, {0}};
  const Timeline tl = trace_transmission(all_dl, AccessMode::GrantFreeUl, 1_ns, {});
  EXPECT_FALSE(tl.feasible);
}

// ---------------------------------------------------------------------------
// Worst-case sweep structure

class WorstCaseStructureTest
    : public ::testing::TestWithParam<std::tuple<const char*, AccessMode>> {};

TEST_P(WorstCaseStructureTest, BestLeMeanLeWorst) {
  const auto [name, mode] = GetParam();
  const auto cfg = make_config(name);
  const auto wc = analyze_worst_case(*cfg, mode, {});
  ASSERT_TRUE(wc.feasible);
  EXPECT_LE(wc.best, wc.mean);
  EXPECT_LE(wc.mean, wc.worst);
  EXPECT_GT(wc.best, Nanos::zero());
  // The reported worst offset really attains the reported worst.
  const Timeline tl =
      trace_transmission(*cfg, mode, cfg->period() * 8 + wc.worst_arrival_offset, {});
  EXPECT_EQ(tl.latency(), wc.worst);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsModes, WorstCaseStructureTest,
    ::testing::Combine(::testing::Values("DU", "DM", "MU", "MiniSlot", "FDD"),
                       ::testing::Values(AccessMode::GrantBasedUl, AccessMode::GrantFreeUl,
                                         AccessMode::Downlink)));

TEST(WorstCaseTest, PeriodShiftInvariance) {
  // The sweep is anchored periods away from zero; shifting the arrival by
  // whole periods must not change the latency (stationarity).
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  for (Nanos offset : {Nanos{1}, Nanos{123'456}, Nanos{250'001}}) {
    const Timeline a =
        trace_transmission(dm, AccessMode::GrantFreeUl, dm.period() * 8 + offset, {});
    const Timeline b =
        trace_transmission(dm, AccessMode::GrantFreeUl, dm.period() * 11 + offset, {});
    EXPECT_EQ(a.latency(), b.latency()) << offset.count();
  }
}

TEST(WorstCaseTest, LongerDataTransmissionsRaiseLatency) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  LatencyModelParams one;
  one.data_tx_symbols = 1;
  LatencyModelParams four;
  four.data_tx_symbols = 4;
  EXPECT_LT(analyze_worst_case(dm, AccessMode::GrantFreeUl, one).worst,
            analyze_worst_case(dm, AccessMode::GrantFreeUl, four).worst);
}

// ---------------------------------------------------------------------------
// The step-free sweep equals a sweep over recorded timelines

/// Probe i of the symbol starting at `boundary`, in sweep order: -1 is the
/// boundary, 0 the instant 1 ns after it, i >= 1 grid point i.
Nanos probe_offset(Nanos boundary, Nanos sym, int i, int grid) {
  return i < 0 ? boundary : i == 0 ? boundary + Nanos{1} : boundary + sym * i / grid;
}

/// The sweep as a reader would write it: trace_transmission per probe, the
/// probe set and the accumulation exactly as analyze_worst_case documents,
/// ending at the first infeasible probe.
WorstCaseResult reference_sweep(const DuplexConfig& cfg, AccessMode mode,
                                const LatencyModelParams& p, int grid) {
  WorstCaseResult r;
  const SlotClock clk = cfg.clock();
  const Nanos base = cfg.period() * 8;
  const Nanos sym = clk.symbol_duration();
  double sum = 0.0;
  std::size_t n = 0;
  auto probe = [&](Nanos offset) {
    const Timeline tl = trace_transmission(cfg, mode, base + offset, p);
    if (!tl.feasible) {
      r.feasible = false;
      return;
    }
    if (tl.latency() > r.worst) {
      r.worst = tl.latency();
      r.worst_arrival_offset = offset;
    }
    r.best = std::min(r.best, tl.latency());
    sum += static_cast<double>(tl.latency().count());
    ++n;
  };
  for (int slot = 0; slot < cfg.period_slots(); ++slot) {
    for (int s = 0; s < kSymbolsPerSlot; ++s) {
      const Nanos boundary = clk.slot_duration() * slot + sym * s;
      for (int i = -1; i < grid && r.feasible; ++i) {
        probe(probe_offset(boundary, sym, i, grid));
      }
    }
  }
  if (n > 0) r.mean = Nanos{static_cast<std::int64_t>(sum / static_cast<double>(n))};
  if (r.best == Nanos::max()) r.best = Nanos::zero();
  return r;
}

/// Processing and radio costs of a software stack, every knob non-zero.
LatencyModelParams software_stack_params() {
  LatencyModelParams p;
  p.data_tx_symbols = 3;
  p.sr_symbols = 2;
  p.sender_processing = 61_us;
  p.receiver_processing = 43_us;
  p.grant_decode = 37_us;
  p.sr_decode = 19_us;
  p.radio_tx = 29_us;
  p.radio_rx = 31_us;
  return p;
}

/// Random model knobs whose leads reach several periods of `period`, so the
/// sweep's runs of equal first-stage opportunity cross period ends.
LatencyModelParams random_params(Rng& rng, Nanos period) {
  const auto lead = [&] {
    return Nanos{static_cast<std::int64_t>(rng.uniform() * 3.0 *
                                           static_cast<double>(period.count()))};
  };
  LatencyModelParams p;
  p.data_tx_symbols = 1 + static_cast<int>(rng.uniform_int(6));
  p.sr_symbols = 1 + static_cast<int>(rng.uniform_int(3));
  p.sender_processing = lead();
  p.receiver_processing = lead();
  p.grant_decode = lead();
  p.sr_decode = lead();
  p.radio_tx = lead();
  p.radio_rx = lead();
  return p;
}

constexpr AccessMode kModes[] = {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl,
                                 AccessMode::Downlink};

void expect_same_sweep(const DuplexConfig& cfg, AccessMode mode, const LatencyModelParams& p,
                       int grid, const std::string& label) {
  const WorstCaseResult got = analyze_worst_case(cfg, mode, p, grid);
  const WorstCaseResult want = reference_sweep(cfg, mode, p, grid);
  const std::string where = label + " / " + to_string(mode) + " / grid " +
                            std::to_string(grid) + " / tx " + std::to_string(p.data_tx_symbols) +
                            " / lead " + std::to_string(p.sender_processing.count());
  EXPECT_EQ(got.worst, want.worst) << where;
  EXPECT_EQ(got.best, want.best) << where;
  EXPECT_EQ(got.mean, want.mean) << where;
  EXPECT_EQ(got.worst_arrival_offset, want.worst_arrival_offset) << where;
  EXPECT_EQ(got.feasible, want.feasible) << where;
}

TEST(WorstCaseSweepTest, StepFreeSweepEqualsRecordedTimelines) {
  const LatencyModelParams params[] = {LatencyModelParams{}, software_stack_params()};
  for (const test::DuplexKind& kind : test::duplex_kinds()) {
    for (AccessMode mode : kModes) {
      for (int grid : {1, 3, 8}) {
        for (const LatencyModelParams& p : params) {
          expect_same_sweep(*kind.cfg, mode, p, grid, kind.label);
        }
      }
    }
  }
}

TEST(WorstCaseSweepTest, RandomLeadsSpanningPeriodsEqualRecordedTimelines) {
  Rng rng(0x5EE9);
  for (const test::DuplexKind& kind : test::duplex_kinds()) {
    for (AccessMode mode : kModes) {
      for (int draw = 0; draw < 3; ++draw) {
        const LatencyModelParams p = random_params(rng, kind.cfg->period());
        const int grid = 1 + static_cast<int>(rng.uniform_int(7));
        expect_same_sweep(*kind.cfg, mode, p, grid, kind.label);
      }
    }
  }
}

TEST(WorstCaseSweepTest, GridFinerThanOneNanosecondEqualsRecordedTimelines) {
  // At µ6 a symbol is 1116 ns: a 1200-point grid rounds its first points
  // down to the boundary, below the +1 ns probe before them, so probe
  // offsets are not monotone within a symbol.
  const std::shared_ptr<const DuplexConfig> cfgs[] = {
      std::make_shared<SlotFormatConfig>(kMu6, std::vector<int>{0, 45}),
      std::make_shared<SlotFormatConfig>(kMu6, std::vector<int>{28, 1}),
      std::make_shared<MiniSlotConfig>(kMu6, 2), std::make_shared<FddConfig>(kMu6)};
  ASSERT_GT(1200, cfgs[0]->clock().symbol_duration().count());
  Rng rng(0x6121);
  for (const auto& cfg : cfgs) {
    for (AccessMode mode : kModes) {
      expect_same_sweep(*cfg, mode, {}, 1200, cfg->name());
      expect_same_sweep(*cfg, mode, random_params(rng, cfg->period()), 1200, cfg->name());
    }
  }
}

/// A duplex whose UL capability ends after `last_ul_slot`: a sweep over
/// the period holding that slot turns infeasible part-way through.
class UlEraDuplex final : public DuplexConfig {
 public:
  UlEraDuplex(SlotFormatConfig inner, SlotIndex last_ul_slot)
      : DuplexConfig(inner.numerology()), inner_(std::move(inner)), last_(last_ul_slot) {}
  [[nodiscard]] SlotMasks slot_masks(SlotIndex s) const override {
    SlotMasks m = inner_.slot_masks(s);
    if (s > last_) m.ul = 0;
    return m;
  }
  [[nodiscard]] int period_slots() const override { return inner_.period_slots(); }
  [[nodiscard]] std::string name() const override { return "ul-era"; }

 private:
  SlotFormatConfig inner_;
  SlotIndex last_;
};

TEST(WorstCaseSweepTest, InfeasibleSweepCoversTheProbesBeforeTheFirstFailure) {
  // D | DDDDDDFFUUUUUU at µ6, swept over slots 16-17; UL ends with slot
  // 17, the sweep's last. A 3-symbol grant-free window exists up to the
  // symbol-11 boundary and never after: the +1 ns probe of symbol 11 fails
  // first. The 1200-point grid's first point rounds back to that boundary,
  // where a window exists, but it comes after the failure and must not
  // count (counting it moves the mean by 1 ns).
  const SlotFormatConfig dm{kMu6, {0, 45}};
  const UlEraDuplex era(dm, /*last_ul_slot=*/17);
  const Nanos sym = dm.clock().symbol_duration();
  const Nanos last_ok = dm.clock().slot_duration() + sym * 11;
  LatencyModelParams p;
  p.data_tx_symbols = 3;
  for (int grid : {4, 1200}) {
    const WorstCaseResult wc = analyze_worst_case(era, AccessMode::GrantFreeUl, p, grid);
    EXPECT_FALSE(wc.feasible);
    EXPECT_EQ(wc.best, sym * 3);  // a probe that transmits right away
    EXPECT_GT(wc.worst, Nanos::zero());
    EXPECT_LE(wc.worst_arrival_offset, last_ok);
    expect_same_sweep(era, AccessMode::GrantFreeUl, p, grid, "ul-era");

    // The same statistics counted by hand: every probe of the sweep up to
    // and including the symbol-11 boundary, in probe order.
    WorstCaseResult by_hand;
    double sum = 0.0;
    std::size_t n = 0;
    const Nanos base = dm.period() * 8;
    for (int slot = 0; slot < 2; ++slot) {
      for (int s = 0; s < kSymbolsPerSlot; ++s) {
        const Nanos boundary = dm.clock().slot_duration() * slot + sym * s;
        if (boundary > last_ok) continue;
        for (int i = -1; i < grid; ++i) {
          if (boundary == last_ok && i >= 0) break;  // the +1 ns probe fails
          const Nanos off = probe_offset(boundary, sym, i, grid);
          const Nanos lat =
              trace_transmission(era, AccessMode::GrantFreeUl, base + off, p).latency();
          by_hand.worst = std::max(by_hand.worst, lat);
          sum += static_cast<double>(lat.count());
          ++n;
        }
      }
    }
    EXPECT_EQ(wc.worst, by_hand.worst) << grid;
    EXPECT_EQ(wc.mean, Nanos{static_cast<std::int64_t>(sum / static_cast<double>(n))}) << grid;
  }
}

TEST(WorstCaseSweepTest, SweepDoesNotAllocate) {
  const LatencyModelParams params[] = {LatencyModelParams{}, software_stack_params()};
  for (const test::DuplexKind& kind : test::duplex_kinds()) {
    for (AccessMode mode : kModes) {
      for (const LatencyModelParams& p : params) {
        const std::size_t before = g_allocs.load();
        (void)analyze_worst_case(*kind.cfg, mode, p, 4);
        EXPECT_EQ(g_allocs.load() - before, 0u) << kind.label << " / " << to_string(mode);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sweep inputs below 1 are rejected, naming the field

void expect_rejected(const LatencyModelParams& p, int grid, const std::string& field) {
  const TddCommonConfig dm = TddCommonConfig::dm(kMu2);
  try {
    (void)analyze_worst_case(dm, AccessMode::GrantBasedUl, p, grid);
    ADD_FAILURE() << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(WorstCaseSweepTest, RejectsInputsBelowOne) {
  for (int grid : {0, -5}) expect_rejected({}, grid, "grid_per_symbol");
  LatencyModelParams no_data;
  no_data.data_tx_symbols = 0;
  expect_rejected(no_data, 4, "data_tx_symbols");
  LatencyModelParams no_sr;
  no_sr.sr_symbols = -1;
  expect_rejected(no_sr, 4, "sr_symbols");
  // The smallest valid inputs still sweep.
  LatencyModelParams one;
  one.data_tx_symbols = 1;
  EXPECT_TRUE(
      analyze_worst_case(TddCommonConfig::dm(kMu2), AccessMode::GrantBasedUl, one, 1).feasible);
}

}  // namespace
}  // namespace u5g
