// Unit tests for the discrete-event kernel and the periodic process helper,
// including the slot-map tombstone machinery, the compact and wide slot
// pools, and the small-buffer Action's zero-allocation guarantee.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "core/e2e_system.hpp"
#include "sim/periodic.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"

namespace u5g {
namespace {

using namespace u5g::literals;

TEST(SimulatorTest, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30_ns, [&] { order.push_back(3); });
  sim.schedule_at(10_ns, [&] { order.push_back(1); });
  sim.schedule_at(20_ns, [&] { order.push_back(2); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ns);
}

TEST(SimulatorTest, SameTimestampFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(5_us, [&order, i] { order.push_back(i); });
  }
  sim.run_until();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// Reference model for the kernel property test: a flat list of every event
// ever scheduled, fired by linear scan in (time, scheduling-order) order.
// It knows nothing of the kernel's two heaps.
class ReferenceSim {
 public:
  [[nodiscard]] Nanos now() const { return now_; }
  std::size_t schedule_at(Nanos when, std::function<void()> fn) {
    recs_.push_back({when, true, std::move(fn)});
    return recs_.size() - 1;  // the index doubles as the scheduling seq
  }
  bool cancel(std::size_t h) {
    if (!recs_[h].live) return false;
    recs_[h].live = false;
    return true;
  }
  bool step() { return fire_next(Nanos::max()); }
  void run_until(Nanos until) {
    while (fire_next(until)) {
    }
    if (until != Nanos::max() && now_ < until) now_ = until;
  }
  [[nodiscard]] std::size_t pending_events() const {
    std::size_t n = 0;
    for (const Rec& r : recs_) n += r.live ? 1 : 0;
    return n;
  }
  [[nodiscard]] Nanos earliest_live() const {
    const std::size_t i = earliest();
    return i == recs_.size() ? Nanos::max() : recs_[i].when;
  }

 private:
  struct Rec {
    Nanos when;
    bool live;
    std::function<void()> fn;
  };
  [[nodiscard]] std::size_t earliest() const {
    std::size_t best = recs_.size();
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      if (recs_[i].live && (best == recs_.size() || recs_[i].when < recs_[best].when)) best = i;
    }
    return best;
  }
  bool fire_next(Nanos until) {
    const std::size_t i = earliest();
    if (i == recs_.size() || recs_[i].when > until) return false;
    recs_[i].live = false;
    now_ = recs_[i].when;
    std::function<void()> fn = std::move(recs_[i].fn);  // fn may grow recs_
    fn();
    return true;
  }

  Nanos now_ = Nanos::zero();
  std::vector<Rec> recs_;
};

// Six words of ballast: a closure carrying it is too big for a compact
// slot and goes to the wide pool.
struct WidePad {
  std::uint64_t words[6] = {};
};

// One randomised script, run against either the kernel or the reference.
// Every choice comes from a counter-based hash stream, so two scripts with
// the same trial make identical choices for as long as they fire identical
// sequences. Times sit on a 50 ns grid, so equal timestamps are common.
template <typename Sim>
struct KernelScript {
  using Handle = decltype(std::declval<Sim&>().schedule_at(Nanos{}, std::function<void()>{}));
  static constexpr int kSpawnCap = 300;

  explicit KernelScript(std::uint64_t trial)
      : state(trial * 0x9E3779B97F4A7C15ULL), pool_salt(~state) {}

  std::uint64_t next() { return splitmix64(state++); }

  // Schedule event `handles.size()` at `when`. From outside a run it lands
  // in the kernel's injection heap; from inside a callback, in the runtime
  // heap. A hash of the id (not the shared stream) picks a compact or a
  // wide closure, so about half the events land in each slot pool.
  void add(Nanos when) {
    const int id = static_cast<int>(handles.size());
    const bool is_wide = (splitmix64(pool_salt + static_cast<std::uint64_t>(id)) & 1u) != 0;
    handles.emplace_back();
    from_callback.push_back(in_callback);
    wide.push_back(is_wide);
    times.push_back(when);
    Handle& h = handles[static_cast<std::size_t>(id)];
    if (is_wide) {
      h = sim.schedule_at(when, [this, id, pad = WidePad{}] {
        (void)pad;
        fire(id);
      });
    } else {
      h = sim.schedule_at(when, [this, id] { fire(id); });
    }
  }

  void cancel_one(std::uint64_t r) {
    const std::size_t i = r % handles.size();
    const bool ok = sim.cancel(handles[i]);
    outcomes.push_back(ok ? 1 : 0);
    if (ok) ++(from_callback[i] ? cancelled_runtime : cancelled_injected);
  }

  // The initial events, scheduled before any run.
  void seed_events(int n) {
    for (int i = 0; i < n; ++i) add(Nanos{50 * static_cast<std::int64_t>(next() % 8)});
  }

  // A firing event spawns a child at its own timestamp or later, cancels a
  // random event in either tier, or does nothing.
  void fire(int id) {
    const Nanos t = times[static_cast<std::size_t>(id)];
    order.push_back(id);
    in_callback = true;
    const std::uint64_t r = next();
    switch (r % 4) {
      case 0:  // same-timestamp child
      case 1:  // child 50-150 ns later
        if (spawned < kSpawnCap) {
          ++spawned;
          add(t + Nanos{r % 4 == 0 ? 0 : 50 * static_cast<std::int64_t>(1 + (r >> 2) % 3)});
        }
        break;
      case 2:
        cancel_one(r >> 8);
        break;
      default:
        break;
    }
    in_callback = false;
  }

  // One operation from outside a run: inject, cancel, step() or run_until().
  void op() {
    const std::uint64_t r = next();
    const std::int64_t k = static_cast<std::int64_t>((r >> 2) % 6);
    switch (r % 4) {
      case 0:
        add(sim.now() + Nanos{50 * k});
        break;
      case 1:
        cancel_one(r >> 8);
        break;
      case 2:
        outcomes.push_back(sim.step() ? 1 : 0);
        break;
      default:
        sim.run_until(sim.now() + Nanos{50 * (k % 4)});
        break;
    }
  }

  Sim sim;
  std::uint64_t state;
  std::uint64_t pool_salt;
  bool in_callback = false;
  int spawned = 0;
  std::vector<Handle> handles;
  std::vector<bool> from_callback;
  std::vector<bool> wide;
  std::vector<Nanos> times;
  std::vector<int> order;
  std::vector<int> outcomes;  ///< cancel() and step() results, in call order
  int cancelled_injected = 0;
  int cancelled_runtime = 0;
};

TEST(SimulatorTest, TwoTierFiringMatchesReferenceModel) {
  // Property test for the two-tier heap and the two slot pools: events
  // scheduled from outside a run and from inside callbacks, in compact and
  // wide slots, share timestamps with interleaved seqs, are cancelled in
  // both tiers, and are fired by interleaved step() and run_until() calls.
  // After every operation the kernel must have fired exactly the
  // reference's (time, seq) sequence, agree on every cancel() and step()
  // result, and report a next_event_time() no later than the reference's
  // earliest live event.
  int mixed_ties = 0;
  int pool_ties = 0;
  int cancelled_injected = 0;
  int cancelled_runtime = 0;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    KernelScript<Simulator> k(trial);
    KernelScript<ReferenceSim> ref(trial);
    k.seed_events(24);
    ref.seed_events(24);
    const auto check = [&](int op) {
      ASSERT_EQ(k.order, ref.order) << "trial " << trial << " op " << op;
      ASSERT_EQ(k.outcomes, ref.outcomes) << "trial " << trial << " op " << op;
      ASSERT_EQ(k.sim.now(), ref.sim.now()) << "trial " << trial << " op " << op;
      ASSERT_EQ(k.sim.pending_events(), ref.sim.pending_events()) << "trial " << trial << " op " << op;
      ASSERT_LE(k.sim.next_event_time(), ref.sim.earliest_live()) << "trial " << trial << " op " << op;
    };
    for (int op = 0; op < 400; ++op) {
      k.op();
      ref.op();
      check(op);
      if (HasFatalFailure()) return;
    }
    k.sim.run_until(Nanos::max());
    ref.sim.run_until(Nanos::max());
    check(-1);
    if (HasFatalFailure()) return;
    EXPECT_EQ(k.sim.next_event_time(), Nanos::max());

    // Count adjacent firings at one timestamp that come from different tiers
    // with the runtime event scheduled first: proof that the two heaps held
    // equal timestamps with interleaved seqs.
    for (std::size_t i = 1; i < ref.order.size(); ++i) {
      const auto a = static_cast<std::size_t>(ref.order[i - 1]);
      const auto b = static_cast<std::size_t>(ref.order[i]);
      if (ref.times[a] == ref.times[b] && ref.from_callback[a] && !ref.from_callback[b]) ++mixed_ties;
      // Adjacent same-timestamp firings from different slot pools.
      if (ref.times[a] == ref.times[b] && ref.wide[a] != ref.wide[b]) ++pool_ties;
    }
    cancelled_injected += ref.cancelled_injected;
    cancelled_runtime += ref.cancelled_runtime;
    EXPECT_GT(k.sim.compact_slots(), 0u) << "trial " << trial;
    EXPECT_GT(k.sim.wide_slots(), 0u) << "trial " << trial;
  }
  EXPECT_GT(mixed_ties, 0);
  EXPECT_GT(pool_ties, 0);
  EXPECT_GT(cancelled_injected, 0);
  EXPECT_GT(cancelled_runtime, 0);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  Nanos fired{-1};
  sim.schedule_at(100_ns, [&] {
    sim.schedule_after(50_ns, [&] { fired = sim.now(); });
  });
  sim.run_until();
  EXPECT_EQ(fired, 150_ns);
}

TEST(SimulatorTest, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.schedule_at(100_ns, [] {});
  sim.run_until();
  EXPECT_THROW(sim.schedule_at(50_ns, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, NestedRunFromCallbackThrows) {
  Simulator sim;
  std::string run_msg;
  std::string step_msg;
  bool later_fired = false;
  sim.schedule_at(10_ns, [&] {
    try {
      sim.run_until(20_ns);
    } catch (const std::logic_error& e) {
      run_msg = e.what();
    }
    try {
      sim.step();
    } catch (const std::logic_error& e) {
      step_msg = e.what();
    }
  });
  sim.schedule_at(20_ns, [&] { later_fired = true; });
  EXPECT_TRUE(sim.step());
  EXPECT_NE(run_msg.find("run_until"), std::string::npos) << run_msg;
  EXPECT_NE(step_msg.find("step"), std::string::npos) << step_msg;
  EXPECT_FALSE(later_fired);  // the rejected calls fired nothing
  EXPECT_EQ(sim.now(), 10_ns);
  sim.run_until();
  EXPECT_TRUE(later_fired);
  EXPECT_EQ(sim.events_fired(), 2u);
}

TEST(SimulatorTest, ThrowingCallbackLeavesKernelUsable) {
  Simulator sim;
  sim.schedule_at(10_ns, [] { throw std::runtime_error{"boom"}; });
  EXPECT_THROW(sim.run_until(), std::runtime_error);
  bool fired = false;
  sim.schedule_at(20_ns, [&] { fired = true; });
  sim.run_until();  // not mistaken for a nested call
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunUntilBoundsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10_us, [&] { ++fired; });
  sim.schedule_at(30_us, [&] { ++fired; });
  sim.run_until(20_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20_us);  // clock advanced to the bound
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(40_us);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtExactBoundFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(20_us, [&] { fired = true; });
  sim.run_until(20_us);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventHandle h = sim.schedule_at(10_ns, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // double cancel is a no-op
  sim.run_until();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventHandle h = sim.schedule_at(1_ns, [] {});
  sim.run_until();
  EXPECT_FALSE(sim.cancel(h));
}

TEST(SimulatorTest, CancelInvalidHandle) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(SimulatorTest, PendingAccounting) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  const auto h1 = sim.schedule_at(1_us, [] {});
  sim.schedule_at(2_us, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(h1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until();
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1_ns, [&] { ++fired; });
  sim.schedule_at(2_ns, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, StepSkipsCancelled) {
  Simulator sim;
  int fired = 0;
  const auto h = sim.schedule_at(1_ns, [&] { ++fired; });
  sim.schedule_at(2_ns, [&] { ++fired; });
  sim.cancel(h);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 2_ns);
}

TEST(SimulatorTest, EventsScheduledDuringRunAreFired) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_after(1_us, chain);
  };
  sim.schedule_at(0_ns, chain);
  sim.run_until();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 4_us);
}

// ---------------------------------------------------------------------------
// Slot recycling / tombstone semantics

TEST(SimulatorTest, StaleHandleAfterSlotReuseIsInert) {
  Simulator sim;
  bool first_fired = false;
  bool second_fired = false;
  const EventHandle h1 = sim.schedule_at(10_ns, [&] { first_fired = true; });
  EXPECT_TRUE(sim.cancel(h1));
  // The next schedule may recycle h1's storage; the stale handle must not be
  // able to cancel the new event.
  const EventHandle h2 = sim.schedule_at(20_ns, [&] { second_fired = true; });
  EXPECT_FALSE(sim.cancel(h1));
  sim.run_until();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
  EXPECT_FALSE(sim.cancel(h2));  // already fired
}

TEST(SimulatorTest, CancelReleasesCapturedResourcesEagerly) {
  Simulator sim;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const EventHandle h = sim.schedule_at(10_ns, [t = std::move(token)] { (void)*t; });
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_TRUE(watch.expired());  // tombstoning destroyed the closure
  sim.run_until();
}

TEST(SimulatorTest, ManyInterleavedCancelsKeepOrdering) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.schedule_at(Nanos{100 - i}, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(sim.cancel(handles[static_cast<std::size_t>(i)]));
  sim.run_until();
  ASSERT_EQ(order.size(), 50u);
  // Survivors are the odd i, firing at when=100-i in increasing time order.
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], 99 - static_cast<int>(2 * k));
  }
}

// ---------------------------------------------------------------------------
// Compact and wide slot pools

// A closure of exactly N bytes aligned to A; firing bumps a shared counter.
int sized_fired = 0;
template <std::size_t N, std::size_t A = 1>
struct alignas(A) SizedClosure {
  unsigned char bytes[N] = {};
  void operator()() const { ++sized_fired; }
};

TEST(SlotPoolTest, SlotAndRecordSizesArePinned) {
  static_assert(Simulator::compact_slot_bytes() == 64);
  static_assert(sizeof(PacketRecord) <= 88);
  EXPECT_EQ(Simulator::compact_slot_bytes(), 64u);
  EXPECT_EQ(Simulator::wide_slot_bytes(), 192u);
  EXPECT_LE(sizeof(PacketRecord), 88u);
}

TEST(SlotPoolTest, ClosureSizeAndAlignmentPickThePool) {
  static_assert(sizeof(SizedClosure<40>) == 40 && sizeof(SizedClosure<41>) == 41);
  static_assert(CompactAction::kFitsInline<SizedClosure<40>>);
  static_assert(CompactAction::kFitsInline<SizedClosure<40, 8>>);
  static_assert(!CompactAction::kFitsInline<SizedClosure<41>>);
  static_assert(!CompactAction::kFitsInline<SizedClosure<16, 16>>);
  static_assert(Action::kFitsInline<SizedClosure<41>> && Action::kFitsInline<SizedClosure<16, 16>>);
  static_assert(!Action::kFitsInline<SizedClosure<32, 64>>);

  Simulator sim;
  const auto schedule_all = [&sim] {
    const Nanos t = sim.now() + Nanos{1};
    sim.schedule_at(t, SizedClosure<40>{});      // compact
    sim.schedule_at(t, SizedClosure<40, 8>{});   // compact
    sim.schedule_at(t, SizedClosure<41>{});      // wide, inline
    sim.schedule_at(t, SizedClosure<16, 16>{});  // wide, inline (over-aligned for compact)
    sim.schedule_at(t, SizedClosure<32, 64>{});  // wide, on the heap (over-aligned for wide)
  };
  sized_fired = 0;
  schedule_all();
  EXPECT_EQ(sim.compact_slots(), 2u);
  EXPECT_EQ(sim.wide_slots(), 3u);
  sim.run_until();
  EXPECT_EQ(sized_fired, 5);

  // Warm: only the closure that fits no inline buffer allocates.
  const std::size_t before = g_allocs.load();
  schedule_all();
  EXPECT_EQ(g_allocs.load() - before, 1u);
  sim.run_until();
  EXPECT_EQ(sized_fired, 10);
  EXPECT_EQ(sim.compact_slots(), 2u);
  EXPECT_EQ(sim.wide_slots(), 3u);
}

TEST(SlotPoolTest, StaleAndCrossPoolCancelsAreInert) {
  Simulator sim;
  sized_fired = 0;
  // Index 0 of each pool: the handles differ only in the pool bit and seq.
  const EventHandle compact = sim.schedule_at(10_ns, SizedClosure<8>{});
  const EventHandle wide = sim.schedule_at(10_ns, SizedClosure<64>{});
  ASSERT_EQ(sim.compact_slots(), 1u);
  ASSERT_EQ(sim.wide_slots(), 1u);
  EXPECT_TRUE(sim.cancel(compact));
  EXPECT_FALSE(sim.cancel(compact));
  EXPECT_EQ(sim.pending_events(), 1u);  // the wide event at the same index is untouched

  // The next compact event recycles index 0; the stale handle stays inert.
  const EventHandle recycled = sim.schedule_at(20_ns, SizedClosure<8>{});
  EXPECT_FALSE(sim.cancel(compact));

  // A handle into a pool this simulator has never grown is out of range.
  Simulator other;
  const EventHandle foreign_wide = other.schedule_at(5_ns, SizedClosure<64>{});
  Simulator fresh;
  EXPECT_FALSE(fresh.cancel(foreign_wide));
  EXPECT_FALSE(fresh.cancel(compact));

  sim.run_until();
  EXPECT_EQ(sized_fired, 2);
  EXPECT_FALSE(sim.cancel(wide));
  EXPECT_FALSE(sim.cancel(recycled));
  EXPECT_TRUE(other.cancel(foreign_wide));
}

// ---------------------------------------------------------------------------
// Action: small-buffer storage and move semantics

TEST(ActionTest, InvokesSmallAndLargeCallables) {
  int hits = 0;
  Action small([&hits] { ++hits; });
  small();
  EXPECT_EQ(hits, 1);

  // > kInlineSize of captured state forces the heap path.
  struct Big {
    double payload[32];
  };
  Big big{};
  big.payload[0] = 2.5;
  double seen = 0.0;
  Action large([big, &seen] { seen = big.payload[0]; });
  large();
  EXPECT_EQ(seen, 2.5);
}

TEST(ActionTest, MoveTransfersOwnership) {
  int hits = 0;
  Action a([&hits] { ++hits; });
  Action b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): testing moved-from state
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  Action c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(ActionTest, ResetDestroysCapture) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  Action a([t = std::move(token)] { (void)t; });
  EXPECT_FALSE(watch.expired());
  a.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(a));
}

TEST(ActionTest, SmallActionIsHeapFree) {
  void* big_enough[3] = {nullptr, nullptr, nullptr};
  const std::size_t before = g_allocs.load();
  Action a([big_enough] { (void)big_enough; });  // 3 captured words
  a();
  a.reset();
  EXPECT_EQ(g_allocs.load(), before);
}

// ---------------------------------------------------------------------------
// Zero heap allocations in kernel steady state (both slot pools)

TEST(SimulatorTest, SteadyStateScheduleFireCancelIsHeapFree) {
  Simulator sim;
  long fired = 0;
  std::vector<EventHandle> injected;
  std::vector<EventHandle> children;
  injected.reserve(128);
  children.reserve(128);
  // One round schedules 128 events from outside the run (the injection
  // heap) and cancels a third of them. Each one that fires schedules a child
  // from inside its callback (the runtime heap), and every second one
  // cancels the child scheduled before it, so both heaps schedule, fire and
  // cancel. Odd events and their children carry wide closures, even ones
  // compact closures, so both slot pools cycle too.
  const auto parent = [&] {
    if (++fired % 2 == 0 && !children.empty()) sim.cancel(children.back());
    if (fired % 4 < 2) {
      children.push_back(sim.schedule_after(Nanos{3}, [&fired] { ++fired; }));
    } else {
      children.push_back(sim.schedule_after(Nanos{3}, [&fired, pad = WidePad{}] {
        (void)pad;
        ++fired;
      }));
    }
  };
  const auto round = [&] {
    const Nanos base = sim.now();
    injected.clear();
    children.clear();
    for (int i = 0; i < 128; ++i) {
      if (i % 2 == 0) {
        injected.push_back(sim.schedule_at(base + Nanos{i + 1}, [&parent] { parent(); }));
      } else {
        injected.push_back(sim.schedule_at(base + Nanos{i + 1}, [&parent, pad = WidePad{}] {
          (void)pad;
          parent();
        }));
      }
    }
    for (std::size_t i = 0; i < injected.size(); i += 3) sim.cancel(injected[i]);
    sim.run_until();
  };
  // Warm-up: push the heaps, slot chunks and free list to their high-water
  // sizes so the vectors keep their capacity for the measured phase.
  round();
  round();

  const std::size_t before = g_allocs.load();
  const long fired_before = fired;
  for (int r = 0; r < 4; ++r) round();
  EXPECT_EQ(g_allocs.load(), before) << "kernel steady state must not touch the heap";
  EXPECT_GT(fired, fired_before);
  EXPECT_FALSE(children.empty());
  EXPECT_GT(sim.compact_slots(), 0u);
  EXPECT_GT(sim.wide_slots(), 0u);
}

// ---------------------------------------------------------------------------
// PeriodicProcess

TEST(PeriodicProcessTest, TicksAtPeriod) {
  Simulator sim;
  std::vector<Nanos> ticks;
  PeriodicProcess p(sim, 100_us, [&](Nanos now) { ticks.push_back(now); });
  sim.run_until(350_us);
  ASSERT_EQ(ticks.size(), 4u);  // 0, 100, 200, 300
  EXPECT_EQ(ticks[0], 0_us);
  EXPECT_EQ(ticks[3], 300_us);
  p.stop();
}

TEST(PeriodicProcessTest, PhaseOffset) {
  Simulator sim;
  std::vector<Nanos> ticks;
  PeriodicProcess p(sim, 100_us, [&](Nanos now) { ticks.push_back(now); }, 30_us);
  sim.run_until(250_us);
  ASSERT_GE(ticks.size(), 2u);
  EXPECT_EQ(ticks[0], 30_us);
  EXPECT_EQ(ticks[1], 130_us);
  p.stop();
}

TEST(PeriodicProcessTest, StopHaltsTicks) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 10_us, [&](Nanos) { ++count; });
  sim.run_until(25_us);
  p.stop();
  sim.run_until(100_us);
  EXPECT_EQ(count, 3);  // 0, 10, 20
}

TEST(PeriodicProcessTest, DestructorCancels) {
  Simulator sim;
  int count = 0;
  {
    PeriodicProcess p(sim, 10_us, [&](Nanos) { ++count; });
    sim.run_until(15_us);
  }
  sim.run_until(100_us);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicProcessTest, StartedLateAlignsToGrid) {
  Simulator sim;
  sim.schedule_at(105_us, [] {});
  sim.run_until();
  std::vector<Nanos> ticks;
  PeriodicProcess p(sim, 100_us, [&](Nanos now) { ticks.push_back(now); }, 0_us);
  sim.run_until(350_us);
  ASSERT_GE(ticks.size(), 1u);
  EXPECT_EQ(ticks[0], 200_us);  // next multiple of 100 after now=105
  p.stop();
}

TEST(PeriodicProcessTest, InvalidPeriodThrows) {
  Simulator sim;
  EXPECT_THROW(PeriodicProcess(sim, 0_ns, [](Nanos) {}), std::invalid_argument);
}

}  // namespace
}  // namespace u5g
