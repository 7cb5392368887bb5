// Unit tests for the transmission-opportunity queries — the primitives the
// whole §5 analysis rests on. Exact expected times are computed from the
// µ2 grid: slot 250 µs, symbol 17857 ns (last symbol absorbs the remainder).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "duplex_kinds.hpp"
#include "tdd/common_config.hpp"
#include "tdd/fdd.hpp"
#include "tdd/mini_slot.hpp"
#include "tdd/slot_format.hpp"
#include "tdd/opportunity.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

constexpr Nanos kSym{17'857};        // µ2 symbol (integer division)
constexpr Nanos kSlot{250'000};

// ---------------------------------------------------------------------------
// next_ul_tx

TEST(NextUlTxTest, DuFindsUplinkSlot) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);  // D | U
  const auto w = next_ul_tx(c, 1_ns, 1);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot);                 // first symbol of the U slot
  EXPECT_EQ(w->end, kSlot + kSym);
}

TEST(NextUlTxTest, StartAtOrAfterT) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  // Exactly at a UL symbol boundary: usable.
  EXPECT_EQ(next_ul_tx(c, kSlot, 1)->start, kSlot);
  // One ns later: the next symbol.
  EXPECT_EQ(next_ul_tx(c, kSlot + 1_ns, 1)->start, kSlot + kSym);
}

TEST(NextUlTxTest, DmUplinkTail) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);  // D | DDDD--UUUUUUUU
  const auto w = next_ul_tx(c, 1_ns, 2);
  ASSERT_TRUE(w.has_value());
  // UL symbols are 6..13 of slot 1.
  EXPECT_EQ(w->start, kSlot + kSym * 6);
  EXPECT_EQ(w->end, kSlot + kSym * 8);
}

TEST(NextUlTxTest, RunCrossesSlotBoundary) {
  const TddCommonConfig c = TddCommonConfig::mu(kMu2);  // DDDD--UUUUUUUU | U...U
  // 10 consecutive UL symbols need the M tail (8) + the U slot head (2):
  // only possible because symbol 13 of slot 0 abuts symbol 0 of slot 1.
  const auto w = next_ul_tx(c, 1_ns, 10);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSym * 6);
  EXPECT_EQ(w->end, kSlot + kSym * 2);
}

TEST(NextUlTxTest, TooLongRunWaitsForNextRegion) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);
  // 9 consecutive UL symbols never exist (the tail is 8): nullopt.
  EXPECT_FALSE(next_ul_tx(c, 1_ns, 9, 10_ms).has_value());
}

TEST(NextUlTxTest, NoUplinkAnywhere) {
  const SlotFormatConfig all_dl{kMu2, {0}};
  EXPECT_FALSE(next_ul_tx(all_dl, 0_ns, 1, 5_ms).has_value());
}

TEST(NextUlTxTest, ZeroSymbolsRejected) {
  const FddConfig c{kMu2};
  EXPECT_FALSE(next_ul_tx(c, 0_ns, 0).has_value());
}

TEST(NextUlTxTest, LastSymbolWindowEndsAtSlotBoundary) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  // Window starting at symbol 13 of the U slot must end exactly at the slot
  // boundary (remainder absorbed), not at 14 * sym.
  const auto w = next_ul_tx(c, kSlot + kSym * 13, 1);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot + kSym * 13);
  EXPECT_EQ(w->end, kSlot * 2);
}

TEST(NextUlTxTest, SearchLimitCutsOffOnTheLastSymbol) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);  // D | DDDD--UUUUUUUU
  // The earliest 2-symbol window is symbols 6..7 of slot 1. A limit that
  // lets the window begin but ends before its last symbol starts finds
  // nothing; one that reaches the last symbol's start finds it.
  const Nanos t = 1_ns;
  const Nanos first = kSlot + kSym * 6;
  const Nanos last = kSlot + kSym * 7;
  EXPECT_FALSE(next_ul_tx(c, t, 2, first + 1_ns - t).has_value());
  EXPECT_FALSE(next_ul_tx(c, t, 2, last - t).has_value());
  const auto w = next_ul_tx(c, t, 2, last + 1_ns - t);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, first);
  EXPECT_EQ(w->end, kSlot + kSym * 8);
}

class UlWindowPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(UlWindowPropertyTest, ReturnedWindowsAreUplinkCapable) {
  // Property: every symbol inside a returned window is UL-capable, for all
  // §5 candidate configs and a sweep of query times and lengths.
  const int n_symbols = GetParam();
  std::vector<std::unique_ptr<DuplexConfig>> cfgs;
  cfgs.push_back(std::make_unique<TddCommonConfig>(TddCommonConfig::du(kMu2)));
  cfgs.push_back(std::make_unique<TddCommonConfig>(TddCommonConfig::dm(kMu2)));
  cfgs.push_back(std::make_unique<TddCommonConfig>(TddCommonConfig::mu(kMu2)));
  cfgs.push_back(std::make_unique<MiniSlotConfig>(kMu2, 2));
  cfgs.push_back(std::make_unique<FddConfig>(kMu2));
  for (const auto& cfg : cfgs) {
    const SlotClock clk = cfg->clock();
    for (int probe = 0; probe < 60; ++probe) {
      const Nanos t = Nanos{probe * 13'441};
      const auto w = next_ul_tx(*cfg, t, n_symbols, 20_ms);
      if (!w) continue;
      EXPECT_GE(w->start, t);
      for (Nanos s = w->start; s < w->end - 1_ns; s += clk.symbol_duration()) {
        EXPECT_TRUE(cfg->ul_capable(clk.slot_at(s), clk.symbol_at(s)))
            << cfg->name() << " t=" << t.count() << " sym at " << s.count();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, UlWindowPropertyTest, ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Granule boundaries / scheduler runs

TEST(GranuleTest, SlotGranularity) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  EXPECT_EQ(next_granule_boundary(c, 0_ns), 0_ns);
  EXPECT_EQ(next_granule_boundary(c, 1_ns), kSlot);
  EXPECT_EQ(next_granule_boundary(c, kSlot), kSlot);
  EXPECT_EQ(next_scheduler_run(c, kSlot + 1_ns), kSlot * 2);
}

TEST(GranuleTest, MiniSlotGranularity) {
  const MiniSlotConfig c{kMu2, 2};
  EXPECT_EQ(next_granule_boundary(c, 1_ns), kSym * 2);
  EXPECT_EQ(next_granule_boundary(c, kSym * 2), kSym * 2);
  EXPECT_EQ(next_granule_boundary(c, kSym * 11), kSym * 12);
  // Past symbol 12 the next granule is the next slot's symbol 0.
  EXPECT_EQ(next_granule_boundary(c, kSym * 12 + 1_ns), kSlot);
}

TEST(GranuleTest, SevenSymbolMiniSlot) {
  const MiniSlotConfig c{kMu2, 7};
  EXPECT_EQ(next_granule_boundary(c, 1_ns), kSym * 7);
  EXPECT_EQ(next_granule_boundary(c, kSym * 7 + 1_ns), kSlot);
}

// ---------------------------------------------------------------------------
// next_dl_control

TEST(NextDlControlTest, SkipsUplinkSlot) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  // Just after the D slot starts: next control is the D slot of period 2.
  const auto w = next_dl_control(c, 1_ns);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot * 2);
  EXPECT_EQ(w->end, kSlot * 2 + kSym);  // 1 control symbol
}

TEST(NextDlControlTest, MixedSlotCarriesControl) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);
  // After slot 0 begins, the M slot (DL head) provides the next control.
  const auto w = next_dl_control(c, 1_ns);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot);
}

TEST(NextDlControlTest, FddEverySlot) {
  const FddConfig c{kMu2};
  EXPECT_EQ(next_dl_control(c, 1_ns)->start, kSlot);
  EXPECT_EQ(next_dl_control(c, kSlot)->start, kSlot);
}

TEST(NextDlControlTest, SearchLimitCutsOffOnTheStart) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  // The next control boundary is 2 slots out; a window that begins before
  // the limit counts even though it ends after it.
  const Nanos t = 1_ns;
  EXPECT_FALSE(next_dl_control(c, t, kSlot * 2 - t).has_value());
  const auto w = next_dl_control(c, t, kSlot * 2 + 1_ns - t);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot * 2);
  EXPECT_GT(w->end, kSlot * 2 + 1_ns);  // ends past the limit
}

TEST(NextDlControlTest, NoDownlinkAnywhere) {
  const SlotFormatConfig all_ul{kMu2, {1}};
  EXPECT_FALSE(next_dl_control(all_ul, 0_ns, 5_ms).has_value());
}

// ---------------------------------------------------------------------------
// next_dl_data

TEST(NextDlDataTest, FullDlSlot) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  const auto w = next_dl_data(c, 1_ns);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot * 2);
  EXPECT_EQ(w->end, kSlot * 3);  // full DL slot: run ends at slot end
}

TEST(NextDlDataTest, MixedSlotRunEndsAtGuard) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);
  const auto w = next_dl_data(c, 1_ns);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot);
  EXPECT_EQ(w->end, kSlot + kSym * 4);  // 4 DL symbols then guard
}

TEST(NextDlDataTest, RunMustExceedControlOverhead) {
  // A slot with a single DL symbol can carry control but no data.
  const SlotFormatConfig c{kMu2, {16, 0}};  // DFFF... then full D
  const auto w = next_dl_data(c, 1_ns);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot);  // skipped the 1-symbol-DL slot
}

TEST(NextDlDataTest, MiniSlotServesWithinGranule) {
  const MiniSlotConfig c{kMu2, 2};
  const auto w = next_dl_data(c, 1_ns);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSym * 2);
  EXPECT_EQ(w->end, kSym * 4);  // the granule itself
}

TEST(NextDlDataTest, SearchLimitCutsOffOnTheStart) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  const Nanos t = 1_ns;
  EXPECT_FALSE(next_dl_data(c, t, kSlot * 2 - t).has_value());
  const auto w = next_dl_data(c, t, kSlot * 2 + 1_ns - t);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot * 2);
  EXPECT_EQ(w->end, kSlot * 3);  // ends a whole slot past the limit
}

TEST(NextDlDataTest, ExactBoundaryUsable) {
  const FddConfig c{kMu2};
  const auto w = next_dl_data(c, kSlot);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot);
  EXPECT_EQ(w->end, kSlot * 2);
}

// ---------------------------------------------------------------------------
// Differential: the mask searches vs the symbol-by-symbol walks they replaced

namespace ref {

struct SymbolCursor {
  SlotIndex slot;
  int sym;
  void advance() {
    if (++sym == kSymbolsPerSlot) {
      sym = 0;
      ++slot;
    }
  }
};

Nanos symbol_start(const SlotClock& clk, SymbolCursor c) { return clk.symbol_start(c.slot, c.sym); }

Nanos symbol_end(const SlotClock& clk, SymbolCursor c) {
  return c.sym == kSymbolsPerSlot - 1 ? clk.slot_end(c.slot)
                                      : clk.symbol_start(c.slot, c.sym + 1);
}

SymbolCursor first_symbol_at_or_after(const SlotClock& clk, Nanos t) {
  SymbolCursor c{clk.slot_at(t), clk.symbol_at(t)};
  if (symbol_start(clk, c) < t) c.advance();
  return c;
}

std::optional<TxWindow> next_ul_tx(const DuplexConfig& cfg, Nanos t, int n_symbols,
                                   Nanos search_limit) {
  if (n_symbols <= 0) return std::nullopt;
  const SlotClock clk = cfg.clock();
  SymbolCursor c = first_symbol_at_or_after(clk, t);
  const Nanos deadline = t + search_limit;
  int run = 0;
  SymbolCursor run_start = c;
  while (symbol_start(clk, c) < deadline) {
    if (cfg.ul_capable(c.slot, c.sym)) {
      if (run == 0) run_start = c;
      if (++run == n_symbols) return TxWindow{symbol_start(clk, run_start), symbol_end(clk, c)};
    } else {
      run = 0;
    }
    c.advance();
  }
  return std::nullopt;
}

std::optional<TxWindow> next_dl_control(const DuplexConfig& cfg, Nanos t, Nanos search_limit) {
  const SlotClock clk = cfg.clock();
  const Nanos deadline = t + search_limit;
  Nanos b = next_granule_boundary(cfg, t);
  while (b < deadline) {
    const SlotIndex slot = clk.slot_at(b);
    const int sym = clk.symbol_at(b);
    if (cfg.dl_capable(slot, sym)) {
      const int last = std::min(sym + cfg.control_symbols(), kSymbolsPerSlot) - 1;
      return TxWindow{b, symbol_end(clk, SymbolCursor{slot, last})};
    }
    b = next_granule_boundary(cfg, b + Nanos{1});
  }
  return std::nullopt;
}

std::optional<TxWindow> next_dl_data(const DuplexConfig& cfg, Nanos t, Nanos search_limit) {
  const SlotClock clk = cfg.clock();
  const Nanos deadline = t + search_limit;
  const int g = cfg.control_granularity_symbols();
  Nanos b = next_granule_boundary(cfg, t);
  while (b < deadline) {
    const SlotIndex slot = clk.slot_at(b);
    const int first_sym = clk.symbol_at(b);
    const int granule_end_sym = std::min(first_sym + g, kSymbolsPerSlot);
    int run = 0;
    while (first_sym + run < granule_end_sym && cfg.dl_capable(slot, first_sym + run)) ++run;
    if (run > cfg.control_symbols()) {
      return TxWindow{b, symbol_end(clk, SymbolCursor{slot, first_sym + run - 1})};
    }
    b = next_granule_boundary(cfg, b + Nanos{1});
  }
  return std::nullopt;
}

}  // namespace ref

::testing::AssertionResult same_window(const std::optional<TxWindow>& got,
                                       const std::optional<TxWindow>& want) {
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure()
           << (got ? "got a window, reference nullopt" : "got nullopt, reference a window");
  }
  if (got && (got->start != want->start || got->end != want->end)) {
    return ::testing::AssertionFailure()
           << "got [" << got->start.count() << ", " << got->end.count() << ") want ["
           << want->start.count() << ", " << want->end.count() << ")";
  }
  return ::testing::AssertionSuccess();
}

TEST(OpportunityDifferentialTest, MaskSearchesMatchSymbolWalk) {
  constexpr int kDraws = 10'000;
  for (const test::DuplexKind& kind : test::duplex_kinds()) {
    const DuplexConfig& cfg = *kind.cfg;
    const SlotClock clk = cfg.clock();
    const Nanos sym = clk.symbol_duration();
    // Query times span slots [-2, 62): look-behind, the dynamic overlay's
    // committed range [3, 60) and the uncommitted slots on either side.
    const std::int64_t span = clk.slot_duration().count() * 64;
    Rng rng(0x0FF0 + kind.label.size());
    int windows = 0;
    for (int i = 0; i < kDraws; ++i) {
      Nanos t{static_cast<std::int64_t>(rng.uniform_int(static_cast<std::uint64_t>(span))) -
              2 * clk.slot_duration().count()};
      switch (rng.uniform_int(3)) {  // exact symbol boundaries and just after
        case 0: t = clk.symbol_start(clk.slot_at(t), clk.symbol_at(t)); break;
        case 1: t = clk.symbol_start(clk.slot_at(t), clk.symbol_at(t)) + 1_ns; break;
        default: break;
      }
      // Mostly 1-14 symbols; some runs longer than a slot, and invalid 0/-1.
      const int n = rng.bernoulli(0.9) ? 1 + static_cast<int>(rng.uniform_int(14))
                                       : static_cast<int>(rng.uniform_int(42)) - 1;
      const Nanos limit = rng.bernoulli(0.01)
                              ? Nanos{40'000'000}
                              : sym * static_cast<std::int64_t>(rng.uniform_int(14 * 12));
      const auto ul = next_ul_tx(cfg, t, n, limit);
      windows += ul ? 1 : 0;
      ASSERT_TRUE(same_window(ul, ref::next_ul_tx(cfg, t, n, limit)))
          << kind.label << " next_ul_tx t=" << t.count() << " n=" << n
          << " limit=" << limit.count();
      ASSERT_TRUE(same_window(next_dl_control(cfg, t, limit), ref::next_dl_control(cfg, t, limit)))
          << kind.label << " next_dl_control t=" << t.count() << " limit=" << limit.count();
      ASSERT_TRUE(same_window(next_dl_data(cfg, t, limit), ref::next_dl_data(cfg, t, limit)))
          << kind.label << " next_dl_data t=" << t.count() << " limit=" << limit.count();
    }
    // Configs with any UL symbol must have exercised the found-window path.
    if (cfg.render_period().find_first_of("UX") != std::string::npos) {
      EXPECT_GT(windows, 0) << kind.label;
    }
  }
}

TEST(OpportunityDifferentialTest, RunsCrossSlotBoundariesOnTheOverlay) {
  // DM alternates a full-DL slot (even) with DDDD--UUUUUUUU (odd). The
  // overlay gives slot 10 UL on symbols 11-13 and slot 12 UL on symbols 0-4.
  // Slot 10's 3-symbol tail is cut off by slot 11's DL head; slot 11's
  // 8-symbol UL tail runs on into slot 12's head, so runs of 9-13 symbols
  // cross the boundary and none of 14 exists.
  auto dyn = std::make_shared<DynamicDuplexConfig>(
      std::make_shared<TddCommonConfig>(TddCommonConfig::dm(kMu2)));
  DecidedFormat f10;
  f10.added_ul = 0b11100000000000;
  dyn->commit(10, f10);
  dyn->commit(11, {});
  DecidedFormat f12;
  f12.added_ul = 0b11111;
  dyn->commit(12, f12);
  const Nanos t = kSlot * 10;
  for (int n = 1; n <= 14; ++n) {
    EXPECT_TRUE(same_window(next_ul_tx(*dyn, t, n, 5_ms), ref::next_ul_tx(*dyn, t, n, 5_ms)))
        << "n=" << n;
  }
  const auto w = next_ul_tx(*dyn, t, 12, 5_ms);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, kSlot * 11 + kSym * 6);
  EXPECT_EQ(w->end, kSlot * 12 + kSym * 4);
  const auto w13 = next_ul_tx(*dyn, t, 13, 5_ms);
  ASSERT_TRUE(w13.has_value());
  EXPECT_EQ(w13->start, kSlot * 11 + kSym * 6);
  EXPECT_EQ(w13->end, kSlot * 12 + kSym * 5);
}

}  // namespace
}  // namespace u5g
