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
//  * In-place firing. Event closures are built directly inside their slot
//    (`Action::emplace` from the templated `schedule_*` overloads) and
//    invoked from there, so the schedule/fire cycle moves zero `Action`
//    objects. Slots live in fixed-size chunks whose addresses never change,
//    which is what makes firing in place safe while callbacks schedule new
//    events.
//  * Lazy cancellation. `cancel` flips a tombstone in the slot (releasing
//    the captured resources eagerly) and the heap entry is discarded when it
//    surfaces.
//
// Steady-state schedule/cancel/fire performs zero heap allocations once the
// heaps, free list and slot chunks have reached their high-water sizes.

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
/// its (slot, seq) pair; seq is globally unique so a handle can never
/// accidentally refer to a later event recycled into the same slot.
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
  /// templated overload constructs the closure directly in its event slot;
  /// the `Action` overload exists for call sites that type-erased early.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventHandle schedule_at(Nanos when, F&& f) {
    const SlotRef r = prepare(when);
    r.s->action.emplace(std::forward<F>(f));
    return EventHandle{r.idx, r.s->seq};
  }
  EventHandle schedule_at(Nanos when, Action action) {
    const SlotRef r = prepare(when);
    r.s->action = std::move(action);
    return EventHandle{r.idx, r.s->seq};
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
    if (!h.valid() || h.slot_ >= slot_count_) return false;
    Slot& s = slot(h.slot_);
    if (s.seq != h.seq_ || s.cancelled) return false;
    s.cancelled = true;
    s.action.reset();  // release captured resources eagerly
    --live_;
    return true;
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

 private:
  struct Slot {
    std::uint64_t seq = 0;  ///< seq of the resident event; 0 = free/fired
    bool cancelled = false;
    Action action;
  };
  struct Entry {
    Nanos when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct SlotRef {
    Slot* s;
    std::uint32_t idx;
  };

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

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

  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  [[nodiscard]] Slot& slot(std::uint32_t i) { return chunks_[i >> kChunkShift][i & kChunkMask]; }

  /// Allocate a slot and a heap entry for `when`; the caller fills the
  /// action in place. Slots come from fixed chunks so the returned pointer
  /// stays valid even if callbacks grow the kernel's containers.
  SlotRef prepare(Nanos when) {
    if (when < now_) throw std::invalid_argument{"Simulator: scheduling into the past"};
    const std::uint64_t seq = ++next_seq_;
    std::uint32_t idx;
    if (free_.empty()) {
      if ((slot_count_ & kChunkMask) == 0) chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      idx = slot_count_++;
    } else {
      idx = free_.back();
      free_.pop_back();
    }
    Slot& s = slot(idx);
    s.seq = seq;
    s.cancelled = false;
    (running_ ? runtime_ : injected_).push(Entry{when, seq, idx});
    ++live_;
    return {&s, idx};
  }

  /// Fire the earliest live event if it is due by `until`; returns false
  /// when none is. Tombstones that surface on the way are recycled. The
  /// action runs inside its slot — chunks never move, and the slot is
  /// recycled only after it returns, so callbacks may freely schedule and
  /// cancel.
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
      Slot& s = slot(e.slot);
      s.seq = 0;  // the handle goes inert, whether the event fires or was cancelled
      if (s.cancelled) {
        s.cancelled = false;
        free_.push_back(e.slot);
        continue;
      }
      --live_;
      ++fired_;
      now_ = e.when;
      if (s.action) s.action();
      s.action.reset();
      free_.push_back(e.slot);
      return true;
    }
  }

  Nanos now_ = Nanos::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t live_ = 0;
  std::uint32_t slot_count_ = 0;
  bool running_ = false;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  Heap injected_;  ///< scheduled from outside a run
  Heap runtime_;   ///< scheduled by firing callbacks
};

}  // namespace u5g
