#include "sim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/runner.hpp"

namespace u5g {

// ---------------------------------------------------------------------------
// ShardGang: persistent window-execution crew.
//
// The PR-4 engine paid one heap-allocated std::function, one queue push and
// one pool wakeup per cell per slot window — at city scale that dispatch
// cost dwarfed the work (BENCH_scaleout recorded 0.87× at 2 threads). The
// gang amortises all of it: one window descriptor (cell array + target
// time) is published per window and workers claim cells through per-cell
// atomic epoch slots.
//
//   * Claiming. Window w publishes epoch E; worker threads copy the
//     descriptor under the gang mutex. A worker claims position p by
//     CAS-ing slots_[p] from a value < E to E; exactly one claimant wins,
//     so every cell runs exactly once per window no matter how claims race.
//     A cell pointer is dereferenced only after a successful claim, and
//     once the engine has counted n completions every position is already
//     claimed — a helper that scans late can therefore never touch a
//     descriptor the engine is rebuilding.
//   * Home ranges + stealing. Worker k starts its scan at offset k·n/width
//     and wraps: it claims "its" contiguous range first (persistent across
//     windows because width and n are stable) and then steals forward into
//     ranges whose owner lags. Stealing moves a cell between threads, never
//     between states — cells share no mutable state inside a window, so the
//     claim schedule is invisible in the results.
//   * Starvation throttle. With fewer cores than workers the helpers lose
//     every claim race, and waking them per window is a futex round-trip
//     for nothing. If helpers claim zero cells for kStarvedWindows
//     consecutive windows the engine stops notifying them (still publishing
//     epochs) except every kStarvedRetry-th window, so oversubscribed runs
//     execute essentially the single-threaded instruction stream.
//
// Correctness never depends on helpers: the engine thread claims too, so a
// helper that misses a wakeup only costs parallelism, and run() returns as
// soon as the done_ count — incremented with release order after each cell,
// matched by the engine's acquire loads — reaches n.
// ---------------------------------------------------------------------------
class ShardGang {
 public:
  ShardGang(int helpers, std::size_t capacity)
      : width_(helpers + 1), slots_(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)) {
    for (std::size_t i = 0; i < capacity; ++i) slots_[i].store(0, std::memory_order_relaxed);
    helpers_.reserve(static_cast<std::size_t>(helpers));
    for (int h = 1; h <= helpers; ++h) {
      helpers_.emplace_back([this, h] { helper_loop(h); });
    }
  }

  ~ShardGang() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : helpers_) t.join();
  }

  [[nodiscard]] int width() const { return width_; }

  /// Execute one window: advance items[0..n) to `to`, the engine thread
  /// participating as worker 0. Returns once every cell has run.
  void run(Cell* const* items, std::size_t n, Nanos to) {
    if (n == 0) return;
    const std::uint64_t before = helper_claims_.load(std::memory_order_relaxed);
    std::uint64_t epoch;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      items_ = items;
      n_ = n;
      to_ = to;
      done_.store(0, std::memory_order_relaxed);
      epoch = ++epoch_;
    }
    if (starved_windows_ < kStarvedWindows || epoch % kStarvedRetry == 0) {
      cv_.notify_all();
    }
    claim_and_run(items, n, to, epoch, /*worker=*/0);
    while (done_.load(std::memory_order_acquire) < n) std::this_thread::yield();
    if (helper_claims_.load(std::memory_order_relaxed) == before) {
      if (starved_windows_ < kStarvedWindows) ++starved_windows_;
    } else {
      starved_windows_ = 0;
    }
  }

 private:
  static constexpr int kStarvedWindows = 4;
  static constexpr std::uint64_t kStarvedRetry = 64;

  void helper_loop(int worker) {
    std::uint64_t seen = 0;
    for (;;) {
      Cell* const* items = nullptr;
      std::size_t n = 0;
      Nanos to{};
      std::uint64_t epoch = 0;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        // Copy the *current* descriptor — a helper that slept through
        // several windows simply joins the latest one.
        seen = epoch = epoch_;
        items = items_;
        n = n_;
        to = to_;
      }
      claim_and_run(items, n, to, epoch, worker);
    }
  }

  void claim_and_run(Cell* const* items, std::size_t n, Nanos to, std::uint64_t epoch,
                     int worker) {
    const std::size_t start =
        (static_cast<std::size_t>(worker) * n) / static_cast<std::size_t>(width_);
    std::size_t claimed = 0;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t pos = start + k;
      if (pos >= n) pos -= n;
      std::uint64_t cur = slots_[pos].load(std::memory_order_relaxed);
      if (cur >= epoch) continue;  // already claimed this window
      if (!slots_[pos].compare_exchange_strong(cur, epoch, std::memory_order_acq_rel)) {
        continue;  // lost the race to another worker
      }
      items[pos]->advance_to(to);
      ++claimed;
      done_.fetch_add(1, std::memory_order_release);
    }
    if (worker != 0 && claimed != 0) {
      helper_claims_.fetch_add(claimed, std::memory_order_relaxed);
    }
  }

  const int width_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;  ///< last claiming epoch per position
  std::atomic<std::size_t> done_{0};
  std::atomic<std::uint64_t> helper_claims_{0};
  int starved_windows_ = 0;  ///< engine thread only

  std::mutex mu_;
  std::condition_variable cv_;
  // Window descriptor + epoch, guarded by mu_.
  Cell* const* items_ = nullptr;
  std::size_t n_ = 0;
  Nanos to_{};
  std::uint64_t epoch_ = 0;
  bool stop_ = false;

  std::vector<std::thread> helpers_;
};

ShardedEngine::ShardedEngine(const StackConfig& base, ShardedOptions opt) : base_(base) {
  if (!base_.duplex) throw std::invalid_argument{"ShardedEngine: duplex config required"};
  if (base_.num_cells < 1) throw std::invalid_argument{"ShardedEngine: num_cells must be >= 1"};
  slot_ = base_.duplex->numerology().slot_duration();
  cells_.reserve(static_cast<std::size_t>(base_.num_cells));
  for (int i = 0; i < base_.num_cells; ++i) {
    cells_.push_back(std::make_unique<Cell>(base_, i));
  }
  active_.reserve(cells_.size());
  load_.resize(cells_.size());
  xlink_.resize(cells_.size());
  const int threads = std::min(resolve_threads(opt.threads), base_.num_cells);
  if (threads > 1) gang_ = std::make_unique<ShardGang>(threads - 1, cells_.size());
}

ShardedEngine::~ShardedEngine() = default;

int ShardedEngine::threads() const { return gang_ ? gang_->width() : 1; }

void ShardedEngine::send_uplink_at(Nanos at, int cell, int ue) {
  if (cell < 0 || cell >= num_cells()) throw std::out_of_range{"ShardedEngine: cell index"};
  if (at < now_) throw std::invalid_argument{"ShardedEngine: injection behind the frontier"};
  cells_[static_cast<std::size_t>(cell)]->queue_uplink(at, ue);
}

void ShardedEngine::send_downlink_at(Nanos at, int cell, int ue) {
  if (cell < 0 || cell >= num_cells()) throw std::out_of_range{"ShardedEngine: cell index"};
  if (at < now_) throw std::invalid_argument{"ShardedEngine: injection behind the frontier"};
  cells_[static_cast<std::size_t>(cell)]->queue_downlink(at, ue);
}

void ShardedEngine::advance_all(Nanos to, bool filter_idle) {
  // One reused dispatch list per window — no per-cell closures, no queue.
  // Skipping a cell whose next activity lies beyond the window is safe:
  // advancing it would only move its local clock (it still receives
  // set_neighbor_load at the barrier, and its load signal cannot change
  // without an event); the final window runs unfiltered so every clock
  // lands exactly on `until`.
  active_.clear();
  for (auto& c : cells_) {
    if (!filter_idle || c->next_activity() <= to) active_.push_back(c.get());
  }
  if (gang_) {
    gang_->run(active_.data(), active_.size(), to);
  } else {
    for (Cell* c : active_) c->advance_to(to);
  }
}

void ShardedEngine::exchange_load() {
  // Gathered and applied in fixed cell order on the engine thread, so the
  // (floating-point) aggregate is identical for every worker thread count.
  double total = 0.0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    load_[i] = static_cast<double>(cells_[i]->load_signal());
    total += load_[i];
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i]->set_neighbor_load(base_.intercell_load_coupling * (total - load_[i]));
  }
  // Dynamic-TDD cross-link: a cell's DL-upgraded symbols interfere with its
  // neighbours' uplink. Same fixed-order gather/apply as the load signal, so
  // the aggregate is identical for every worker thread count; a cell never
  // sees its own activity. Skipped entirely when the policy is disabled.
  if (base_.dynamic_tdd.enabled) {
    double activity = 0.0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      xlink_[i] = cells_[i]->dl_upgrade_activity();
      activity += xlink_[i];
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i]->set_crosslink(base_.intercell_load_coupling * (activity - xlink_[i]));
    }
  }
}

void ShardedEngine::run_until(Nanos until) {
  if (until <= now_) return;
  if (base_.intercell_load_coupling == 0.0 || cells_.size() == 1) {
    // No cross-cell dependency: the lookahead is infinite, one window.
    advance_all(until, /*filter_idle=*/false);
    now_ = until;
    return;
  }
  while (now_ < until) {
    // Adaptive window: nothing anywhere can fire before tmin, so every
    // slot-grid barrier below it would recompute and re-apply unchanged
    // loads — skip straight to the first barrier that can matter. The
    // produced barrier sequence is a no-op-free subset of the fixed
    // one-slot schedule, hence bitwise-identical results.
    Nanos tmin = Nanos::max();
    for (const auto& c : cells_) tmin = std::min(tmin, c->next_activity());
    Nanos end = until;
    if (tmin < until) {
      if (tmin < now_) tmin = now_;  // conservative estimates may trail the frontier
      const std::int64_t grid =
          (tmin.count() + slot_.count() - 1) / slot_.count() * slot_.count();
      Nanos barrier{grid};
      if (barrier <= now_) barrier = now_ + slot_;  // activity at an aligned frontier
      end = std::min(barrier, until);
    }
    advance_all(end, /*filter_idle=*/end != until);
    exchange_load();
    now_ = end;
  }
}

SampleSet ShardedEngine::latency_samples_us(Direction dir) const {
  SampleSet merged;
  for (const auto& c : cells_) merged.merge(c->system().latency_samples_us(dir));
  return merged;
}

MetricsRegistry ShardedEngine::merged_metrics() const {
  MetricsRegistry merged;
  for (const auto& c : cells_) {
    merged.merge(c->system().metrics());
    if (c->population() != nullptr) c->population()->export_metrics(merged);
  }
  return merged;
}

template <typename Get>
std::uint64_t ShardedEngine::sum_cells(Get get) const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += get(c->system());
  return n;
}

std::uint64_t ShardedEngine::packets_started() const {
  return sum_cells([](const E2eSystem& s) { return s.packets_started(); });
}

std::uint64_t ShardedEngine::packets_delivered() const {
  return sum_cells([](const E2eSystem& s) { return s.packets_delivered(); });
}

std::uint64_t ShardedEngine::radio_deadline_misses() const {
  return sum_cells([](const E2eSystem& s) { return s.radio_deadline_misses(); });
}

std::uint64_t ShardedEngine::events_fired() const {
  return sum_cells([](const E2eSystem& s) { return s.simulator().events_fired(); });
}

std::uint64_t ShardedEngine::punctured_retx() const {
  return sum_cells([](const E2eSystem& s) { return s.punctured_retx(); });
}

std::uint64_t ShardedEngine::crosslink_ul_losses() const {
  return sum_cells([](const E2eSystem& s) { return s.crosslink_ul_losses(); });
}

std::uint64_t ShardedEngine::dynamic_upgraded_slots() const {
  return sum_cells([](const E2eSystem& s) { return s.dynamic_upgraded_slots(); });
}

LbtGate::Stats ShardedEngine::lbt_stats() const {
  LbtGate::Stats t;
  for (const auto& c : cells_) {
    const LbtGate::Stats s = c->system().lbt_stats();
    t.attempts += s.attempts;
    t.deferred += s.deferred;
    t.deferral_total += s.deferral_total;
    t.cw_doublings += s.cw_doublings;
    t.cw_resets += s.cw_resets;
    t.hidden_collisions += s.hidden_collisions;
    t.nru_airtime += s.nru_airtime;
    t.wifi_overlap += s.wifi_overlap;
  }
  return t;
}

ShardedEngine::PopulationTotals ShardedEngine::population_totals() const {
  PopulationTotals t;
  for (const auto& c : cells_) {
    const UePopulation* p = c->population();
    if (p == nullptr) continue;
    t.ues += p->size();
    t.offered += p->counters().offered;
    t.delivered += p->counters().delivered;
    t.harq_drops += p->counters().harq_drops;
    t.queue_drops += p->counters().queue_drops;
    t.grants_used += p->counters().grants_used;
    t.queued += p->queued_packets();
    t.storage_bytes += p->storage_bytes();
  }
  return t;
}

std::vector<TraceLane> ShardedEngine::trace_lanes() const {
  std::vector<TraceLane> lanes;
  lanes.reserve(cells_.size());
  for (const auto& c : cells_) {
    lanes.push_back(TraceLane{"cell " + std::to_string(c->index()), c->system().tracer().spans()});
  }
  return lanes;
}

}  // namespace u5g
