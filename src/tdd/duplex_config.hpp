#pragma once
// Duplex configuration abstraction.
//
// Everything the paper's latency analysis needs to know about a 5G duplex
// configuration reduces to one question per slot — "which of its 14
// symbols can carry downlink, and which uplink?" — answered as two 14-bit
// masks, plus the granularity at which scheduling/control decisions are
// made. Direction decisions are per slot in NR (and in flexible-TDD URLLC
// scheduling, Esswie & Pedersen, arXiv 1909.11305), so one virtual call per
// slot is the whole interface; the opportunity searches (tdd/opportunity)
// work on the masks with bit operations. TDD Common Configuration, Slot
// Format, Mini-Slot and FDD (§2, Fig 1) all implement it; the worst-case
// engine (src/core) and the MAC scheduler are written against it.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/hashing.hpp"
#include "common/time.hpp"
#include "phy/frame_structure.hpp"
#include "phy/numerology.hpp"

namespace u5g {

/// Every symbol of a slot (bit s = symbol s).
inline constexpr std::uint16_t kFullSlotMask =
    static_cast<std::uint16_t>((1u << kSymbolsPerSlot) - 1u);

/// Direction capability of one slot: bit s of `dl` / `ul` is set when symbol
/// s can carry downlink / uplink. A symbol in neither mask is a guard (or a
/// flexible symbol read conservatively); FDD and Mini-Slot set both.
struct SlotMasks {
  std::uint16_t dl = 0;
  std::uint16_t ul = 0;
  friend constexpr bool operator==(const SlotMasks&, const SlotMasks&) = default;
};

class DuplexConfig {
 public:
  virtual ~DuplexConfig() = default;

  [[nodiscard]] Numerology numerology() const { return num_; }
  [[nodiscard]] SlotClock clock() const { return SlotClock{num_}; }

  /// DL/UL capability masks of slot `slot` (any index, negative too).
  [[nodiscard]] virtual SlotMasks slot_masks(SlotIndex slot) const = 0;

  /// Can symbol `sym` of slot `slot` carry downlink transmissions?
  [[nodiscard]] bool dl_capable(SlotIndex slot, int sym) const {
    return (slot_masks(slot).dl >> sym) & 1u;
  }
  /// Can symbol `sym` of slot `slot` carry uplink transmissions?
  [[nodiscard]] bool ul_capable(SlotIndex slot, int sym) const {
    return (slot_masks(slot).ul >> sym) & 1u;
  }

  /// Period after which the direction map repeats, in slots (>= 1).
  [[nodiscard]] virtual int period_slots() const = 0;

  /// Scheduling / control granularity in symbols: control information goes
  /// out once per granule (§2: "the scheduling task is done just once per
  /// slot"), so data that misses a granule boundary waits for the next.
  /// 14 for slot-based configurations, smaller for Mini-Slot.
  [[nodiscard]] virtual int control_granularity_symbols() const { return kSymbolsPerSlot; }

  /// Symbols of DL control (PDCCH) at the start of each DL-capable granule.
  [[nodiscard]] virtual int control_symbols() const { return 1; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Direction map of one period rendered one char per symbol per slot
  /// ('D', 'U', 'X' for both-capable, '-' for guard), slots separated by '|'.
  /// Regenerates Fig 1's configuration schematics in machine-readable form.
  [[nodiscard]] std::string render_period() const;

  // -- Derived helpers ------------------------------------------------------

  [[nodiscard]] bool slot_has_dl(SlotIndex slot) const { return slot_masks(slot).dl != 0; }
  [[nodiscard]] bool slot_has_ul(SlotIndex slot) const { return slot_masks(slot).ul != 0; }
  /// Period of the direction map as a duration.
  [[nodiscard]] Nanos period() const {
    return num_.slot_duration() * period_slots();
  }

  // -- Value identity --------------------------------------------------------
  // Everything the latency analysis can observe about a duplex configuration
  // is its numerology, scheduling granularity, control overhead, and the
  // per-symbol direction map over one period (read slot by slot from the
  // masks, packed exactly as a per-symbol walk would). Two configs with identical
  // observables are interchangeable for every worst-case and simulation
  // result, whatever their concrete type or heap address — the canonical
  // identity the feasibility-query cache keys on. (`name()` is
  // presentational and deliberately not part of the identity.)

  /// Append this config's observable value identity to `words`.
  void append_value_words(CanonicalWords& words) const;
  /// How many words append_value_words appends (4 scalars plus the
  /// direction map at 28 bits a slot), for sizing a key up front.
  [[nodiscard]] std::size_t value_word_count() const;
  /// Stable 64-bit fold of the value identity.
  [[nodiscard]] std::uint64_t value_hash() const;

 protected:
  explicit DuplexConfig(Numerology n) : num_(n) {}
  // Copy/move are protected: concrete configs are value types, but copying
  // through a base pointer (slicing) is prevented.
  DuplexConfig(const DuplexConfig&) = default;
  DuplexConfig& operator=(const DuplexConfig&) = default;

 private:
  Numerology num_;
};

/// Deep value equality over the observable identity (see append_value_words).
/// Exact — compares the full direction map, never just a hash.
[[nodiscard]] bool value_equal(const DuplexConfig& a, const DuplexConfig& b);

}  // namespace u5g
