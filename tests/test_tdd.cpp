// Unit tests for src/tdd: Common Configuration validation and direction
// maps, Slot Format table, Mini-Slot, FDD, the render helpers, and the
// per-slot masks every config answers with.

#include <gtest/gtest.h>

#include "common/hashing.hpp"
#include "duplex_kinds.hpp"
#include "tdd/common_config.hpp"
#include "tdd/fdd.hpp"
#include "tdd/mini_slot.hpp"
#include "tdd/slot_format.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

// ---------------------------------------------------------------------------
// Standard periods

TEST(TddPeriodTest, StandardSet) {
  const auto periods = standard_tdd_periods();
  ASSERT_EQ(periods.size(), 8u);
  EXPECT_EQ(periods[0], 500_us);
  EXPECT_EQ(periods[1], Nanos{625'000});
  EXPECT_EQ(periods.back(), 10_ms);
}

TEST(TddPeriodTest, ValidityDependsOnNumerology) {
  EXPECT_TRUE(is_valid_tdd_period(500_us, kMu1));   // 1 slot
  EXPECT_TRUE(is_valid_tdd_period(500_us, kMu2));   // 2 slots
  EXPECT_FALSE(is_valid_tdd_period(500_us, kMu0));  // half a slot: invalid
  EXPECT_FALSE(is_valid_tdd_period(Nanos{625'000}, kMu2));  // 2.5 slots
  EXPECT_TRUE(is_valid_tdd_period(Nanos{625'000}, kMu3));   // 5 slots
  EXPECT_FALSE(is_valid_tdd_period(Nanos{750'000}, kMu2));  // not in the set
}

// ---------------------------------------------------------------------------
// Common Configuration validation

TEST(TddCommonConfigTest, RejectsNonStandardPeriod) {
  EXPECT_THROW((TddCommonConfig{kMu2, TddPattern{Nanos{300'000}, 1, 0, 0, 0}}),
               std::invalid_argument);
}

TEST(TddCommonConfigTest, RejectsOverflowingPattern) {
  // 0.5 ms at µ2 = 2 slots; 2 DL + 1 UL does not fit.
  EXPECT_THROW((TddCommonConfig{kMu2, TddPattern{500_us, 2, 0, 0, 1}}), std::invalid_argument);
  // Mixed slot needs its own slot on top of D and U.
  EXPECT_THROW((TddCommonConfig{kMu2, TddPattern{500_us, 1, 4, 4, 1}}), std::invalid_argument);
}

TEST(TddCommonConfigTest, RejectsMixedSlotWithoutGuard) {
  // 14 DL+UL symbols leave no guard symbol (§2: guard is mandatory).
  EXPECT_THROW((TddCommonConfig{kMu2, TddPattern{500_us, 1, 7, 7, 0}}), std::invalid_argument);
}

TEST(TddCommonConfigTest, RejectsNegativeAndOversizeFields) {
  EXPECT_THROW((TddCommonConfig{kMu2, TddPattern{500_us, -1, 0, 0, 1}}), std::invalid_argument);
  EXPECT_THROW((TddCommonConfig{kMu2, TddPattern{500_us, 0, 14, 0, 1}}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The paper's configurations

TEST(TddCommonConfigTest, DuMap) {
  const TddCommonConfig c = TddCommonConfig::du(kMu2);
  EXPECT_EQ(c.period_slots(), 2);
  EXPECT_EQ(c.render_period(), "DDDDDDDDDDDDDD|UUUUUUUUUUUUUU");
  EXPECT_EQ(c.name(), "TDD-Common(DU)");
  EXPECT_EQ(c.guard_symbols(), 0);
}

TEST(TddCommonConfigTest, DmMap) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);
  EXPECT_EQ(c.render_period(), "DDDDDDDDDDDDDD|DDDD--UUUUUUUU");
  EXPECT_EQ(c.guard_symbols(), 2);
  // Slot 1 is the mixed slot: DL head, guard, UL tail.
  EXPECT_TRUE(c.dl_capable(1, 0));
  EXPECT_TRUE(c.dl_capable(1, 3));
  EXPECT_FALSE(c.dl_capable(1, 4));
  EXPECT_FALSE(c.ul_capable(1, 5));
  EXPECT_TRUE(c.ul_capable(1, 6));
  EXPECT_TRUE(c.ul_capable(1, 13));
}

TEST(TddCommonConfigTest, MuMap) {
  const TddCommonConfig c = TddCommonConfig::mu(kMu2);
  EXPECT_EQ(c.render_period(), "DDDD--UUUUUUUU|UUUUUUUUUUUUUU");
}

TEST(TddCommonConfigTest, DdduMap) {
  const TddCommonConfig c = TddCommonConfig::dddu(kMu1);
  EXPECT_EQ(c.period_slots(), 4);
  EXPECT_EQ(c.period(), 2_ms);
  EXPECT_EQ(c.name(), "TDD-Common(DDDU)");
  for (int s : {0, 1, 2}) {
    EXPECT_TRUE(c.dl_capable(s, 0)) << s;
    EXPECT_FALSE(c.ul_capable(s, 13)) << s;
  }
  EXPECT_TRUE(c.ul_capable(3, 0));
  EXPECT_FALSE(c.dl_capable(3, 0));
}

TEST(TddCommonConfigTest, MapIsPeriodic) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);
  for (int sym = 0; sym < kSymbolsPerSlot; ++sym) {
    for (SlotIndex s : {SlotIndex{0}, SlotIndex{1}}) {
      EXPECT_EQ(c.dl_capable(s, sym), c.dl_capable(s + 2 * 1000, sym));
      EXPECT_EQ(c.ul_capable(s, sym), c.ul_capable(s + 2 * 1000, sym));
      // Negative slots too (analysis can look behind t=0).
      EXPECT_EQ(c.dl_capable(s, sym), c.dl_capable(s - 2 * 1000, sym));
    }
  }
}

TEST(TddCommonConfigTest, SlotHasQueries) {
  const TddCommonConfig c = TddCommonConfig::dm(kMu2);
  EXPECT_TRUE(c.slot_has_dl(0));
  EXPECT_FALSE(c.slot_has_ul(0));
  EXPECT_TRUE(c.slot_has_dl(1));  // mixed slot has both
  EXPECT_TRUE(c.slot_has_ul(1));
}

TEST(TddCommonConfigTest, TwoPatternConfig) {
  // DDDU + DU at µ1: total 2 ms + 1 ms = 3 ms, 6 slots.
  const TddCommonConfig c{kMu1, TddPattern{2_ms, 3, 0, 0, 1},
                          TddPattern{1_ms, 1, 0, 0, 1}};
  EXPECT_EQ(c.period_slots(), 6);
  EXPECT_EQ(c.period(), 3_ms);
  // Pattern 2 slots: slot 4 = D, slot 5 = U.
  EXPECT_TRUE(c.dl_capable(4, 0));
  EXPECT_TRUE(c.ul_capable(5, 0));
  EXPECT_EQ(c.name(), "TDD-Common(DDDU+DU)");
}

TEST(TddCommonConfigTest, MinimalPatternsNeedMu2) {
  // DU needs two slots in 0.5 ms -> impossible at µ1.
  EXPECT_THROW(TddCommonConfig::du(kMu1), std::invalid_argument);
}

TEST(TddCommonConfigTest, FlexibleSlotsInLongPattern) {
  // 2 ms at µ2 = 8 slots: 2 D + mixed + 1 U leaves 4 flexible (guard) slots.
  const TddCommonConfig c{kMu2, TddPattern{2_ms, 2, 4, 4, 1}};
  EXPECT_TRUE(c.dl_capable(0, 0));
  EXPECT_TRUE(c.dl_capable(2, 0));       // partial DL symbols
  EXPECT_FALSE(c.dl_capable(2, 4));
  EXPECT_TRUE(c.ul_capable(6, 13));      // partial UL symbols in slot before U
  EXPECT_FALSE(c.ul_capable(4, 7));      // interior flexible slot: neither
  EXPECT_FALSE(c.dl_capable(4, 7));
  EXPECT_TRUE(c.ul_capable(7, 0));
}

// ---------------------------------------------------------------------------
// Slot formats

TEST(SlotFormatTest, TableBasics) {
  ASSERT_EQ(slot_format_table().size(), 46u);
  EXPECT_EQ(slot_format(0).render(), "DDDDDDDDDDDDDD");
  EXPECT_EQ(slot_format(1).render(), "UUUUUUUUUUUUUU");
  EXPECT_EQ(slot_format(2).render(), "FFFFFFFFFFFFFF");
  EXPECT_EQ(slot_format(28).render(), "DDDDDDDDDDDDFU");
  EXPECT_THROW(slot_format(46), std::out_of_range);
  EXPECT_THROW(slot_format(-1), std::out_of_range);
}

class SlotFormatIndexTest : public ::testing::TestWithParam<int> {};

TEST_P(SlotFormatIndexTest, SelfConsistent) {
  const SlotFormat& f = slot_format(GetParam());
  EXPECT_EQ(f.index, GetParam());
  const std::string r = f.render();
  ASSERT_EQ(r.size(), 14u);
  EXPECT_EQ(f.has_dl(), r.find('D') != std::string::npos);
  EXPECT_EQ(f.has_ul(), r.find('U') != std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(All, SlotFormatIndexTest, ::testing::Range(0, 46));

TEST(SlotFormatConfigTest, CyclicSequence) {
  const SlotFormatConfig c{kMu1, {0, 0, 28, 1}};  // D D (DDDDDDDDDDDDFU) U
  EXPECT_EQ(c.period_slots(), 4);
  EXPECT_TRUE(c.dl_capable(0, 5));
  EXPECT_TRUE(c.dl_capable(2, 0));
  EXPECT_FALSE(c.dl_capable(2, 12));  // flexible: conservative neither
  EXPECT_FALSE(c.ul_capable(2, 12));
  EXPECT_TRUE(c.ul_capable(2, 13));
  EXPECT_TRUE(c.ul_capable(3, 0));
  // Cycles, including for negative slot indices.
  EXPECT_TRUE(c.ul_capable(7, 0));
  EXPECT_TRUE(c.ul_capable(-1, 0));
  EXPECT_EQ(c.name(), "SlotFormat(0,0,28,1)");
}

TEST(SlotFormatConfigTest, EmptySequenceThrows) {
  EXPECT_THROW((SlotFormatConfig{kMu1, {}}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Mini-slot & FDD

TEST(MiniSlotTest, Granularity) {
  const MiniSlotConfig c{kMu2, 2};
  EXPECT_EQ(c.control_granularity_symbols(), 2);
  EXPECT_EQ(c.period_slots(), 1);
  EXPECT_TRUE(c.dl_capable(123, 7));
  EXPECT_TRUE(c.ul_capable(-5, 0));
}

TEST(MiniSlotTest, LengthValidation) {
  EXPECT_NO_THROW((MiniSlotConfig{kMu2, 2}));
  EXPECT_NO_THROW((MiniSlotConfig{kMu2, 4}));
  EXPECT_NO_THROW((MiniSlotConfig{kMu2, 7}));
  EXPECT_THROW((MiniSlotConfig{kMu2, 3}), std::invalid_argument);
  EXPECT_THROW((MiniSlotConfig{kMu2, 14}), std::invalid_argument);
}

TEST(MiniSlotTest, StandardsRecommendationFlag) {
  // §5: the standard targets mini-slot at slot durations >= 0.5 ms.
  EXPECT_TRUE(MiniSlotConfig(kMu2, 2).violates_standard_recommendation());
  EXPECT_FALSE(MiniSlotConfig(kMu1, 2).violates_standard_recommendation());
  EXPECT_FALSE(MiniSlotConfig(kMu0, 7).violates_standard_recommendation());
}

TEST(FddTest, FullDuplexEverywhere) {
  const FddConfig c{kMu2};
  EXPECT_TRUE(c.dl_capable(9, 9));
  EXPECT_TRUE(c.ul_capable(9, 9));
  EXPECT_EQ(c.render_period(), "XXXXXXXXXXXXXX");
}

TEST(FddTest, BandRestriction) {
  EXPECT_TRUE(FddConfig::allowed_in_band(*find_band("n1")));
  EXPECT_FALSE(FddConfig::allowed_in_band(band_n78()));
}

// ---------------------------------------------------------------------------
// Slot masks vs a per-symbol reference

/// Direction of one symbol of a pattern-local slot, straight from the
/// TddPattern fields: full DL slots, the DL head of the slot after them, the
/// UL tail of the slot before the UL slots, full UL slots; guard otherwise.
char pattern_symbol(const TddPattern& p, Numerology num, int slot, int sym) {
  const int slots = p.slots(num);
  const bool mixed = p.dl_symbols > 0 || p.ul_symbols > 0;
  if (slot < p.dl_slots) return 'D';
  if (slot >= slots - p.ul_slots) return 'U';
  if (mixed && slot == p.dl_slots && sym < p.dl_symbols) return 'D';
  if (mixed && slot == slots - p.ul_slots - 1 && sym >= kSymbolsPerSlot - p.ul_symbols) return 'U';
  return '-';
}

/// Reference masks of `slot`, built symbol by symbol from each config's own
/// definition rather than from slot_masks().
SlotMasks reference_masks(const DuplexConfig& cfg, SlotIndex slot) {
  const std::int64_t period = cfg.period_slots();
  const int in_period = static_cast<int>(((slot % period) + period) % period);
  SlotMasks m;
  const auto set = [&m](int sym, bool dl, bool ul) {
    if (dl) m.dl = static_cast<std::uint16_t>(m.dl | (1u << sym));
    if (ul) m.ul = static_cast<std::uint16_t>(m.ul | (1u << sym));
  };
  if (const auto* dyn = dynamic_cast<const DynamicDuplexConfig*>(&cfg)) {
    m = reference_masks(dyn->base(), slot);
    const DecidedFormat f = dyn->committed(slot);
    for (int sym = 0; sym < kSymbolsPerSlot; ++sym) {
      set(sym, (f.added_dl >> sym) & 1u, (f.added_ul >> sym) & 1u);
    }
  } else if (const auto* tdd = dynamic_cast<const TddCommonConfig*>(&cfg)) {
    const int p1_slots = tdd->pattern1().slots(cfg.numerology());
    const bool in_p1 = in_period < p1_slots;
    const TddPattern& p = in_p1 ? tdd->pattern1() : *tdd->pattern2();
    for (int sym = 0; sym < kSymbolsPerSlot; ++sym) {
      const char d = pattern_symbol(p, cfg.numerology(), in_p1 ? in_period : in_period - p1_slots,
                                    sym);
      set(sym, d == 'D', d == 'U');
    }
  } else if (const auto* sf = dynamic_cast<const SlotFormatConfig*>(&cfg)) {
    const SlotFormat& f = slot_format(sf->format_of_slot(in_period).index);
    for (int sym = 0; sym < kSymbolsPerSlot; ++sym) {
      const SymbolKind k = f.symbols[static_cast<std::size_t>(sym)];
      set(sym, k == SymbolKind::Downlink, k == SymbolKind::Uplink);
    }
  } else {
    // FDD and Mini-Slot: every symbol can carry either direction.
    for (int sym = 0; sym < kSymbolsPerSlot; ++sym) set(sym, true, true);
  }
  return m;
}

TEST(SlotMasksTest, SlotMasksMatchDirectionMap) {
  for (const test::DuplexKind& kind : test::duplex_kinds()) {
    const DuplexConfig& cfg = *kind.cfg;
    const int period = cfg.period_slots();
    for (SlotIndex s = 0; s <= 5 * period; ++s) {
      const SlotMasks want = reference_masks(cfg, s);
      const SlotMasks got = cfg.slot_masks(s);
      EXPECT_EQ(got.dl, want.dl) << kind.label << " slot " << s;
      EXPECT_EQ(got.ul, want.ul) << kind.label << " slot " << s;
      EXPECT_EQ(cfg.slot_has_dl(s), want.dl != 0) << kind.label << " slot " << s;
      EXPECT_EQ(cfg.slot_has_ul(s), want.ul != 0) << kind.label << " slot " << s;
      for (int sym = 0; sym < kSymbolsPerSlot; ++sym) {
        EXPECT_EQ(cfg.dl_capable(s, sym), ((want.dl >> sym) & 1u) != 0) << kind.label;
        EXPECT_EQ(cfg.ul_capable(s, sym), ((want.ul >> sym) & 1u) != 0) << kind.label;
      }
    }
    // Negative slots wrap like positive ones.
    EXPECT_EQ(cfg.slot_masks(-1), reference_masks(cfg, -1)) << kind.label;
    EXPECT_EQ(cfg.slot_masks(-period - 3), reference_masks(cfg, -period - 3)) << kind.label;

    // The value identity is the per-symbol packing: 2 bits per symbol (bit 0
    // DL, bit 1 UL), slot-major, 64 bits per word, a partial last word.
    CanonicalWords want;
    want.add_signed(cfg.numerology().mu());
    want.add_signed(period);
    want.add_signed(cfg.control_granularity_symbols());
    want.add_signed(cfg.control_symbols());
    std::uint64_t w = 0;
    int bits = 0;
    for (int s = 0; s < period; ++s) {
      const SlotMasks m = reference_masks(cfg, s);
      for (int sym = 0; sym < kSymbolsPerSlot; ++sym) {
        const unsigned pair = ((m.dl >> sym) & 1u) | (((m.ul >> sym) & 1u) << 1);
        w |= static_cast<std::uint64_t>(pair) << bits;
        bits += 2;
        if (bits == 64) {
          want.add(w);
          w = 0;
          bits = 0;
        }
      }
    }
    if (bits > 0) want.add(w);
    CanonicalWords got;
    cfg.append_value_words(got);
    EXPECT_EQ(got.words(), want.words()) << kind.label;
    EXPECT_EQ(cfg.value_word_count(), got.size()) << kind.label;

    std::string render;
    for (int s = 0; s < period; ++s) {
      if (s != 0) render += '|';
      const SlotMasks m = reference_masks(cfg, s);
      for (int sym = 0; sym < kSymbolsPerSlot; ++sym) {
        const bool d = (m.dl >> sym) & 1u;
        const bool u = (m.ul >> sym) & 1u;
        render += d && u ? 'X' : d ? 'D' : u ? 'U' : '-';
      }
    }
    EXPECT_EQ(cfg.render_period(), render) << kind.label;
  }
}

}  // namespace
}  // namespace u5g
