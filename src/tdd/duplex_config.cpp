#include "tdd/duplex_config.hpp"

namespace u5g {

std::string DuplexConfig::render_period() const {
  std::string out;
  for (int s = 0; s < period_slots(); ++s) {
    if (s != 0) out += '|';
    const SlotMasks m = slot_masks(s);
    for (int k = 0; k < kSymbolsPerSlot; ++k) {
      const bool d = (m.dl >> k) & 1u;
      const bool u = (m.ul >> k) & 1u;
      out += d && u ? 'X' : d ? 'D' : u ? 'U' : '-';
    }
  }
  return out;
}

namespace {

/// Spreads the 14 mask bits to the even bit positions of a 28-bit word
/// (bit k -> bit 2k).
constexpr std::uint64_t spread_even(std::uint64_t x) {
  x = (x | (x << 8)) & 0x00FF00FFu;
  x = (x | (x << 4)) & 0x0F0F0F0Fu;
  x = (x | (x << 2)) & 0x33333333u;
  x = (x | (x << 1)) & 0x55555555u;
  return x;
}

}  // namespace

void DuplexConfig::append_value_words(CanonicalWords& words) const {
  words.add_signed(numerology().mu());
  words.add_signed(period_slots());
  words.add_signed(control_granularity_symbols());
  words.add_signed(control_symbols());
  // The direction map, two bits per symbol packed into words: bit 0 = DL
  // capability, bit 1 = UL capability, in (slot, symbol) order. One slot is
  // 28 bits, so a slot's pair straddles a word boundary whenever fewer than
  // 28 bits of the current word remain.
  constexpr int kSlotBits = 2 * kSymbolsPerSlot;
  std::uint64_t w = 0;
  int bits = 0;
  for (int s = 0; s < period_slots(); ++s) {
    const SlotMasks m = slot_masks(s);
    const std::uint64_t pairs = spread_even(m.dl) | (spread_even(m.ul) << 1);
    w |= pairs << bits;
    bits += kSlotBits;
    if (bits >= 64) {
      words.add(w);
      bits -= 64;
      w = pairs >> (kSlotBits - bits);  // bits < 28: the spilled high part
    }
  }
  if (bits > 0) words.add(w);
}

std::size_t DuplexConfig::value_word_count() const {
  constexpr std::size_t kSlotBits = 2 * kSymbolsPerSlot;
  return 4 + (kSlotBits * static_cast<std::size_t>(period_slots()) + 63) / 64;
}

std::uint64_t DuplexConfig::value_hash() const {
  CanonicalWords words;
  append_value_words(words);
  return words.hash();
}

bool value_equal(const DuplexConfig& a, const DuplexConfig& b) {
  if (&a == &b) return true;
  CanonicalWords wa, wb;
  a.append_value_words(wa);
  b.append_value_words(wb);
  return wa == wb;
}

}  // namespace u5g
