#include "tdd/opportunity.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace u5g {

namespace {

/// Global symbol index across slots.
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

/// End of a symbol; symbol 13 absorbs the integer-division remainder so that
/// it abuts the next slot start exactly.
Nanos symbol_end(const SlotClock& clk, SymbolCursor c) {
  return c.sym == kSymbolsPerSlot - 1 ? clk.slot_end(c.slot)
                                      : clk.symbol_start(c.slot, c.sym + 1);
}

/// First symbol whose start is at or after `t`.
SymbolCursor first_symbol_at_or_after(const SlotClock& clk, Nanos t) {
  SlotIndex slot = clk.slot_at(t);
  int sym = clk.symbol_at(t);
  SymbolCursor c{slot, sym};
  if (symbol_start(clk, c) < t) c.advance();
  return c;
}

/// Granule-opening symbols of a slot: bits 0, g, 2g, ... below 14.
unsigned granule_starts(int g) {
  unsigned m = 0;
  for (int sym = 0; sym < kSymbolsPerSlot; sym += g) m |= 1u << sym;
  return m;
}

}  // namespace

std::optional<TxWindow> next_ul_tx(const DuplexConfig& cfg, Nanos t, int n_symbols,
                                   Nanos search_limit) {
  if (n_symbols <= 0) return std::nullopt;
  const SlotClock clk = cfg.clock();
  const SymbolCursor first = first_symbol_at_or_after(clk, t);
  const Nanos deadline = t + search_limit;

  // Slot by slot: `run` UL symbols end at the previous slot's last symbol
  // (a run carries across the boundary), starting at `run_start`. The
  // window is the earliest n-symbol run; it counts only if its last symbol
  // starts before the deadline, as a symbol-by-symbol walk would find.
  int run = 0;
  SymbolCursor run_start = first;
  for (SlotIndex slot = first.slot; clk.slot_start(slot) < deadline; ++slot) {
    std::uint32_t ul = cfg.slot_masks(slot).ul;
    if (slot == first.slot) ul &= ~((1u << first.sym) - 1u);
    if (ul == 0) {
      run = 0;
      continue;
    }
    std::optional<SymbolCursor> last;
    const int head = std::countr_one(ul);  // UL symbols opening the slot
    if (run > 0 && head >= n_symbols - run) {
      last = SymbolCursor{slot, n_symbols - run - 1};
    } else if (n_symbols <= kSymbolsPerSlot) {
      // Bit s of `starts` survives iff symbols s .. s+n-1 are all UL.
      unsigned starts = ul;
      for (int covered = 1; covered < n_symbols && starts != 0;) {
        const int shift = std::min(covered, n_symbols - covered);
        starts &= starts >> shift;
        covered += shift;
      }
      if (starts != 0) {
        run_start = SymbolCursor{slot, std::countr_zero(starts)};
        last = SymbolCursor{slot, run_start.sym + n_symbols - 1};
      }
    }
    if (last) {
      if (symbol_start(clk, *last) >= deadline) return std::nullopt;
      return TxWindow{symbol_start(clk, run_start), symbol_end(clk, *last)};
    }
    // No window completes here: carry the run touching the slot's end.
    const int tail = std::countl_one(ul << (32 - kSymbolsPerSlot));
    if (tail == kSymbolsPerSlot) {
      if (run == 0) run_start = SymbolCursor{slot, 0};
      run += kSymbolsPerSlot;
    } else {
      run = tail;
      run_start = SymbolCursor{slot, kSymbolsPerSlot - tail};
    }
  }
  return std::nullopt;
}

Nanos next_granule_boundary(const DuplexConfig& cfg, Nanos t) {
  const SlotClock clk = cfg.clock();
  const int g = cfg.control_granularity_symbols();
  const SlotIndex slot = clk.slot_at(t);
  // Granules start at symbols 0, g, 2g, ... within each slot.
  for (int sym = 0; sym < kSymbolsPerSlot; sym += g) {
    const Nanos b = clk.symbol_start(slot, sym);
    if (b >= t) return b;
  }
  return clk.slot_start(slot + 1);
}

Nanos next_scheduler_run(const DuplexConfig& cfg, Nanos t) { return next_granule_boundary(cfg, t); }

std::optional<TxWindow> next_dl_control(const DuplexConfig& cfg, Nanos t, Nanos search_limit) {
  const SlotClock clk = cfg.clock();
  const Nanos deadline = t + search_limit;
  const unsigned starts = granule_starts(cfg.control_granularity_symbols());

  // The first granule boundary at or after `t` whose opening symbol is
  // downlink-capable; it counts only if it lies before the deadline.
  const Nanos b0 = next_granule_boundary(cfg, t);
  const SlotIndex first_slot = clk.slot_at(b0);
  for (SlotIndex slot = first_slot; clk.slot_start(slot) < deadline; ++slot) {
    unsigned open = cfg.slot_masks(slot).dl & starts;
    if (slot == first_slot) open &= ~((1u << clk.symbol_at(b0)) - 1u);
    if (open == 0) continue;
    const int sym = std::countr_zero(open);
    const Nanos b = clk.symbol_start(slot, sym);
    if (b >= deadline) return std::nullopt;
    // Control occupies cfg.control_symbols() symbols from the boundary,
    // clamped to the slot (granules never cross slots).
    const int last = std::min(sym + cfg.control_symbols(), kSymbolsPerSlot) - 1;
    return TxWindow{b, symbol_end(clk, SymbolCursor{slot, last})};
  }
  return std::nullopt;
}

std::optional<TxWindow> next_dl_data(const DuplexConfig& cfg, Nanos t, Nanos search_limit) {
  const SlotClock clk = cfg.clock();
  const Nanos deadline = t + search_limit;
  const int g = cfg.control_granularity_symbols();
  const unsigned starts = granule_starts(g);
  const int control = cfg.control_symbols();

  const Nanos b0 = next_granule_boundary(cfg, t);
  const SlotIndex first_slot = clk.slot_at(b0);
  for (SlotIndex slot = first_slot; clk.slot_start(slot) < deadline; ++slot) {
    const unsigned dl = cfg.slot_masks(slot).dl;
    unsigned open = dl & starts;
    if (slot == first_slot) open &= ~((1u << clk.symbol_at(b0)) - 1u);
    for (; open != 0; open &= open - 1) {
      const int first_sym = std::countr_zero(open);
      // Length of the downlink-capable run opening the granule.
      const int granule_len = std::min(g, kSymbolsPerSlot - first_sym);
      const int run = std::min(std::countr_one(dl >> first_sym), granule_len);
      if (run <= control) continue;
      const Nanos b = clk.symbol_start(slot, first_sym);
      if (b >= deadline) return std::nullopt;
      return TxWindow{b, symbol_end(clk, SymbolCursor{slot, first_sym + run - 1})};
    }
  }
  return std::nullopt;
}

}  // namespace u5g
