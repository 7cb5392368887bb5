#pragma once
// Discrete-event simulation kernel.
//
// The whole 5G system model runs on one simulated clock. Components schedule
// callbacks at absolute times; the kernel fires them in (time, sequence)
// order so same-timestamp events run in scheduling order (deterministic
// replay).
//
// Hot-path design:
//
//  * Two-tier (time, seq) heap. Pending events are compact {when, seq, slot}
//    entries in two 4-ary min-heaps. Events scheduled from outside a run
//    (setup, and traffic injected between windows) go to the injection heap;
//    events scheduled by firing callbacks go to the runtime heap. Each pop
//    takes the smaller of the two tops by (when, seq), so the order is exact
//    whatever the split and the split only affects speed: a backlog of
//    thousands of far-future injected arrivals never deepens the heap that
//    the slot-by-slot protocol events churn through.
//    There is deliberately no per-timestamp bucketing: the simulated shapes
//    barely share timestamps (stack_mix fires 1.023 events per distinct
//    timestamp, bench_scaleout's grant-free 16x8 cells 1.155, other testbed
//    and city shapes 1.000-1.107), so a hash index and a FIFO bucket per
//    timestamp cost more than the heap pushes they save (EXPERIMENTS.md).
//  * Two slot sizes. A closure of at most 40 bytes (8-aligned) lives in a
//    compact slot that is exactly one 64-byte cache line; anything larger
//    (the datapath closures that carry a `ByteBuffer`) lives in a 192-byte
//    wide slot. The templated `schedule_*` overloads pick the pool at
//    compile time from the closure's size and alignment. The top bit of a
//    slot index names the pool, in heap entries and in handles alike; both
//    pools share the heaps, the seq counter and the firing path.
//  * In-place firing. Event closures are built directly inside their slot
//    (`BasicAction::emplace` from the templated `schedule_*` overloads) and
//    invoked from there, so the schedule/fire cycle moves zero actions.
//    Slots live in fixed-size chunks whose addresses never change, which is
//    what makes firing in place safe while callbacks schedule new events.
//  * Lazy cancellation. `cancel` flips a tombstone in the slot (releasing
//    the captured resources eagerly) and the heap entry is discarded when it
//    surfaces.
//
// Steady-state schedule/cancel/fire performs zero heap allocations once the
// heaps, free lists and slot chunks have reached their high-water sizes.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "sim/action.hpp"

namespace u5g {

/// Handle to a scheduled event, usable to cancel it. Identifies the event by
/// its (slot, seq) pair, where the slot index carries its pool bit; seq is
/// globally unique so a handle can never accidentally refer to a later event
/// recycled into the same slot, in either pool.
class EventHandle {
 public:
  constexpr EventHandle() = default;
  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }

 private:
  friend class Simulator;
  constexpr EventHandle(std::uint32_t slot, std::uint64_t seq) : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

/// Event-driven simulator with cancellation and run-until semantics.
class Simulator {
 public:
  using Action = u5g::Action;

  [[nodiscard]] Nanos now() const { return now_; }

  /// Schedule a callable at absolute time `when` (must be >= now()). The
  /// templated overload constructs the closure directly in its event slot,
  /// a compact one when the closure fits `CompactAction` inline and a wide
  /// one otherwise; the `Action` overload (always wide) exists for call
  /// sites that type-erased early.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventHandle schedule_at(Nanos when, F&& f) {
    if constexpr (CompactAction::kFitsInline<std::remove_cvref_t<F>>) {
      return place(compact_, 0, when, [&](CompactAction& a) { a.emplace(std::forward<F>(f)); });
    } else {
      return place(wide_, kWideBit, when, [&](Action& a) { a.emplace(std::forward<F>(f)); });
    }
  }
  EventHandle schedule_at(Nanos when, Action action) {
    return place(wide_, kWideBit, when, [&](Action& a) { a = std::move(action); });
  }

  /// Schedule a callable after a relative delay.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventHandle schedule_after(Nanos delay, F&& f) {
    return schedule_at(now_ + delay, std::forward<F>(f));
  }
  EventHandle schedule_after(Nanos delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Cancel a pending event. Returns true if the event had not yet fired or
  /// been cancelled. Safe on default-constructed handles. O(1): tombstones
  /// the slot; the heap entry is skipped when it surfaces.
  bool cancel(EventHandle h) {
    if (!h.valid()) return false;
    return (h.slot_ & kWideBit) != 0 ? cancel_in(wide_, h) : cancel_in(compact_, h);
  }

  /// Run until the event queue drains or `until` is reached (whichever first).
  /// If `until` bounds the run, the clock is advanced to exactly `until`.
  /// Throws std::logic_error when called from inside a firing callback.
  void run_until(Nanos until = Nanos::max()) {
    const RunScope scope(running_, "run_until");
    while (fire_next(until)) {
    }
    if (until != Nanos::max() && now_ < until) now_ = until;
  }

  /// Fire exactly one live event; returns false if none remain. Throws
  /// std::logic_error when called from inside a firing callback.
  bool step() {
    const RunScope scope(running_, "step");
    return fire_next(Nanos::max());
  }

  [[nodiscard]] std::size_t pending_events() const { return live_; }
  [[nodiscard]] bool idle() const { return live_ == 0; }
  /// Timestamp of the earliest pending entry, or Nanos::max() when the
  /// queue is empty. Conservative: a tombstoned entry still reports its
  /// time, so callers using this as a lookahead bound may under-estimate the
  /// true next firing but never over-estimate it.
  [[nodiscard]] Nanos next_event_time() const {
    Nanos t = Nanos::max();
    if (!injected_.empty()) t = injected_.top().when;
    if (!runtime_.empty() && runtime_.top().when < t) t = runtime_.top().when;
    return t;
  }
  /// Events fired over the simulator's lifetime — an always-on kernel stat
  /// benches export into the metrics registry.
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Slots each pool has allocated so far (its high-water mark of pending
  /// events); with the slot sizes below they give the kernel's footprint.
  [[nodiscard]] std::uint32_t compact_slots() const { return compact_.size(); }
  [[nodiscard]] std::uint32_t wide_slots() const { return wide_.size(); }
  [[nodiscard]] static constexpr std::size_t compact_slot_bytes() { return sizeof(CompactSlot); }
  [[nodiscard]] static constexpr std::size_t wide_slot_bytes() { return sizeof(WideSlot); }

 private:
  /// One pending event: the seq that handles must match, the tombstone and
  /// the closure, built and fired in place.
  template <typename A, std::size_t Align = alignof(A)>
  struct alignas(Align) Slot {
    std::uint64_t seq = 0;  ///< seq of the resident event; 0 = free/fired
    bool cancelled = false;
    A action;
  };
  using CompactSlot = Slot<CompactAction, 64>;
  using WideSlot = Slot<Action>;
  static_assert(sizeof(CompactSlot) == 64, "a compact slot is one cache line");

  /// Pool bit of a slot index: set for the wide pool, clear for compact.
  static constexpr std::uint32_t kWideBit = 1u << 31;
  static constexpr std::uint32_t kIndexMask = kWideBit - 1;

  struct Entry {
    Nanos when;
    std::uint64_t seq;
    std::uint32_t slot;  ///< pool bit | index within the pool
  };

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  /// Slots of one size in fixed chunks whose addresses never change, plus
  /// the free list of recycled indices.
  template <typename S>
  class SlotPool {
   public:
    [[nodiscard]] S& at(std::uint32_t i) { return chunks_[i >> kChunkShift][i & kChunkMask]; }
    [[nodiscard]] std::uint32_t size() const { return count_; }

    std::uint32_t acquire() {
      if (free_.empty()) return grow();
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    void release(std::uint32_t i) { free_.push_back(i); }

   private:
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

    /// Hand out a never-used slot, adding a chunk when the last one is full.
    /// Out of line: the warm path recycles from the free list.
    [[gnu::noinline]] std::uint32_t grow() {
      if ((count_ & kChunkMask) == 0) {
        if (count_ > kIndexMask - kChunkSize) throw std::length_error{"Simulator: slot pool full"};
        chunks_.push_back(std::make_unique<S[]>(kChunkSize));
      }
      return count_++;
    }

    std::vector<std::unique_ptr<S[]>> chunks_;
    std::vector<std::uint32_t> free_;
    std::uint32_t count_ = 0;
  };

  /// Min-heap of entries by (when, seq). Four children per node halve the
  /// depth of a binary heap; arity 4 measured faster than arity 2 and than
  /// std::priority_queue on stack_mix and the kernel micro-benchmarks
  /// (EXPERIMENTS.md).
  class Heap {
   public:
    static constexpr std::size_t kArity = 4;

    [[nodiscard]] bool empty() const { return v_.empty(); }
    [[nodiscard]] const Entry& top() const { return v_.front(); }

    void push(const Entry& e) {
      std::size_t i = v_.size();
      v_.push_back(e);
      while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!before(e, v_[parent])) break;
        v_[i] = v_[parent];
        i = parent;
      }
      v_[i] = e;
    }

    Entry pop() {
      const Entry out = v_.front();
      const Entry last = v_.back();
      v_.pop_back();
      const std::size_t n = v_.size();
      if (n == 0) return out;
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = i * kArity + 1;
        if (first >= n) break;
        const std::size_t end = first + kArity < n ? first + kArity : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
          if (before(v_[c], v_[best])) best = c;
        }
        if (!before(v_[best], last)) break;
        v_[i] = v_[best];
        i = best;
      }
      v_[i] = last;
      return out;
    }

   private:
    std::vector<Entry> v_;
  };

  /// Marks the kernel as running for one run_until()/step() call, which
  /// routes callback-scheduled events to the runtime heap, and rejects a
  /// nested call from inside a firing callback.
  struct RunScope {
    RunScope(bool& flag, const char* call) : running(flag) {
      if (running) {
        throw std::logic_error{std::string{"Simulator::"} + call +
                               "() called from inside a firing callback"};
      }
      running = true;
    }
    ~RunScope() { running = false; }
    RunScope(const RunScope&) = delete;
    RunScope& operator=(const RunScope&) = delete;
    bool& running;
  };

  /// Take a slot from `pool`, push its heap entry for `when`, and let
  /// `build` fill the action in place. The slot reference stays valid even
  /// if callbacks grow the kernel's containers, because chunks never move.
  template <typename S, typename Build>
  EventHandle place(SlotPool<S>& pool, std::uint32_t pool_bit, Nanos when, Build&& build) {
    if (when < now_) throw std::invalid_argument{"Simulator: scheduling into the past"};
    const std::uint64_t seq = ++next_seq_;
    const std::uint32_t idx = pool.acquire() | pool_bit;
    S& s = pool.at(idx & kIndexMask);
    s.seq = seq;
    s.cancelled = false;
    (running_ ? runtime_ : injected_).push(Entry{when, seq, idx});
    ++live_;
    build(s.action);
    return EventHandle{idx, seq};
  }

  template <typename S>
  bool cancel_in(SlotPool<S>& pool, EventHandle h) {
    const std::uint32_t idx = h.slot_ & kIndexMask;
    if (idx >= pool.size()) return false;
    S& s = pool.at(idx);
    if (s.seq != h.seq_ || s.cancelled) return false;
    s.cancelled = true;
    s.action.reset();  // release captured resources eagerly
    --live_;
    return true;
  }

  /// Fire the earliest live event if it is due by `until`; returns false
  /// when none is. Tombstones that surface on the way are recycled.
  bool fire_next(Nanos until) {
    for (;;) {
      Heap* h;
      if (injected_.empty()) {
        if (runtime_.empty()) return false;
        h = &runtime_;
      } else {
        h = runtime_.empty() || before(injected_.top(), runtime_.top()) ? &injected_ : &runtime_;
      }
      if (h->top().when > until) return false;
      const Entry e = h->pop();
      if ((e.slot & kWideBit) != 0 ? fire_in(wide_, e) : fire_in(compact_, e)) return true;
    }
  }

  /// Fire `e`'s slot unless it is a tombstone; either way recycle it. The
  /// action runs inside its slot — chunks never move, and the slot is
  /// recycled only after it returns, so callbacks may freely schedule and
  /// cancel.
  template <typename S>
  bool fire_in(SlotPool<S>& pool, const Entry& e) {
    const std::uint32_t idx = e.slot & kIndexMask;
    S& s = pool.at(idx);
    s.seq = 0;  // the handle goes inert, whether the event fires or was cancelled
    if (s.cancelled) {
      s.cancelled = false;
      pool.release(idx);
      return false;
    }
    --live_;
    ++fired_;
    now_ = e.when;
    if (s.action) s.action();
    s.action.reset();
    pool.release(idx);
    return true;
  }

  Nanos now_ = Nanos::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t live_ = 0;
  bool running_ = false;
  SlotPool<CompactSlot> compact_;
  SlotPool<WideSlot> wide_;
  Heap injected_;  ///< scheduled from outside a run
  Heap runtime_;   ///< scheduled by firing callbacks
};

}  // namespace u5g
