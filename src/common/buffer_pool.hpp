#pragma once
// Freelist pool of recycled packet-buffer backing stores.
//
// Every packet through the stack used to allocate (and free) a fresh
// `std::vector` per layer hop; at Monte-Carlo scale that heap traffic
// dominates the per-packet protocol work. The pool keeps released backing
// stores on per-size-class freelists so the warm datapath acquires and
// releases storage without touching the heap: the first few packets carve
// blocks from `operator new`, every later packet reuses them.
//
// Threading model: one pool per thread (`BufferPool::local()`), matching the
// Monte-Carlo runner where each worker owns its replications end to end.
// Blocks are self-describing (they carry their capacity), so a buffer that
// migrates across threads simply recycles into the destination thread's
// pool — safe, just not the steady-state pattern.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

namespace u5g {

/// Per-thread freelist allocator for ByteBuffer backing stores.
class BufferPool {
 public:
  /// One backing store: this header followed by `capacity` payload bytes.
  struct Block {
    std::uint32_t capacity = 0;  ///< usable bytes following the header
    std::int8_t cls = -1;        ///< size-class index; -1 = unpooled (huge)
    std::uint16_t owner = 0;     ///< id of the pool that acquired this block
    Block* next = nullptr;       ///< freelist link while recycled
    [[nodiscard]] std::uint8_t* data() {
      return reinterpret_cast<std::uint8_t*>(this) + sizeof(Block);
    }
  };

  /// Smallest pooled capacity; classes double up to the largest. Requests
  /// beyond the largest class fall back to plain heap blocks (released to
  /// the heap, not the freelist) — packets that size do not exist on the
  /// warm path.
  static constexpr std::size_t kMinCapacity = 256;
  static constexpr std::size_t kMaxPooledCapacity = std::size_t{1} << 20;

  BufferPool() {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.pools.push_back(this);
  }
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool() {
    {
      // Fold this pool's traffic into the retired tallies so global_stats()
      // stays exact across thread (and pool) lifetimes.
      Registry& r = registry();
      const std::lock_guard<std::mutex> lock(r.mu);
      r.retired_acquires += acq_.load(std::memory_order_relaxed);
      r.retired_releases += rel_.load(std::memory_order_relaxed);
      std::erase(r.pools, this);
    }
    for (Block*& head : free_) {
      while (head != nullptr) {
        Block* b = head;
        head = b->next;
        ::operator delete(b);
      }
    }
  }

  /// A block with at least `capacity` usable bytes: from the matching
  /// freelist when one is cached, freshly carved otherwise. Never null, and
  /// declared so: GCC then knows a pooled ByteBuffer is not inline and does
  /// not warn (-Warray-bounds) about its fill overrunning the inline bytes.
  [[nodiscard, gnu::returns_nonnull]] Block* acquire(std::size_t capacity) {
    const int cls = class_of(capacity);
    if (cls >= 0 && free_[static_cast<std::size_t>(cls)] != nullptr) {
      Block* b = free_[static_cast<std::size_t>(cls)];
      free_[static_cast<std::size_t>(cls)] = b->next;
      b->next = nullptr;
      b->owner = id_;
      ++stats_.reuses;
      ++stats_.outstanding;
      bump(acq_);
      return b;
    }
    const std::size_t cap = cls >= 0 ? class_capacity(cls) : capacity;
    auto* b = static_cast<Block*>(::operator new(sizeof(Block) + cap));
    b->capacity = static_cast<std::uint32_t>(cap);
    b->cls = static_cast<std::int8_t>(cls);
    b->owner = id_;
    b->next = nullptr;
    ++stats_.heap_allocations;
    ++stats_.outstanding;
    bump(acq_);
    return b;
  }

  /// Return a block: recycled onto its class freelist, or freed if unpooled.
  void release(Block* b) {
    if (b == nullptr) return;
    ++stats_.releases;
    // Blocks are stamped with the acquiring pool at acquire time, so a
    // migrated block decrements nobody: the source pool keeps counting it
    // as outstanding (it never came home) and this pool records a foreign
    // release. Per-pool `outstanding` therefore never underflows, and the
    // migration-exact live count is global_stats(), merged on read from
    // the process-wide acquire/release counters.
    if (b->owner == id_) {
      --stats_.outstanding;
    } else {
      ++stats_.foreign_releases;
    }
    bump(rel_);
    if (b->cls < 0) {
      ::operator delete(b);
      return;
    }
    b->next = free_[static_cast<std::size_t>(b->cls)];
    free_[static_cast<std::size_t>(b->cls)] = b;
  }

  /// Pre-carve `count` blocks of (at least) `capacity` so the very first
  /// packets of a run are already freelist hits. All blocks are held live
  /// until the end so each iteration carves a fresh one instead of
  /// round-tripping the same block through the freelist.
  void prefill(std::size_t capacity, std::size_t count) {
    const std::uint64_t reuses = stats_.reuses;
    const std::uint64_t releases = stats_.releases;
    Block* held = nullptr;
    for (std::size_t i = 0; i < count; ++i) {
      Block* b = acquire(capacity);
      b->next = held;
      held = b;
    }
    while (held != nullptr) {
      Block* b = held;
      held = b->next;
      b->next = nullptr;
      release(b);
    }
    // Prefilled blocks were never handed to a caller: the acquire/release
    // round trips above should not count as datapath reuse traffic.
    stats_.reuses = reuses;
    stats_.releases = releases;
  }

  /// Per-pool counters. `outstanding` counts blocks this pool acquired that
  /// have not been released back *to this pool*: a block that migrates to
  /// another thread stays in the source pool's count and shows up as a
  /// `foreign_releases` tick on the destination, so neither counter can
  /// wrap. The migration-exact live count is global_stats().
  struct Stats {
    std::uint64_t heap_allocations = 0;  ///< blocks carved from operator new
    std::uint64_t reuses = 0;            ///< acquires served by a freelist
    std::uint64_t releases = 0;          ///< blocks returned to the pool
    std::uint64_t outstanding = 0;       ///< own live blocks not released here
    std::uint64_t foreign_releases = 0;  ///< blocks another pool acquired
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Process-wide view, merged on read: each pool keeps its own acquire and
  /// release tallies (written only by the thread running that pool, as plain
  /// relaxed stores — no locked read-modify-write on the hot path), and the
  /// reader sums them across the registry. Exact even when buffers migrate
  /// across threads: a migrated block is one acquire on its source pool and
  /// one release on its destination, so the sums still pair up.
  struct GlobalStats {
    std::uint64_t acquires = 0;
    std::uint64_t releases = 0;
    std::int64_t outstanding = 0;  ///< acquires - releases, process-wide
  };
  [[nodiscard]] static GlobalStats global_stats() {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    std::uint64_t a = reg.retired_acquires;
    std::uint64_t r = reg.retired_releases;
    for (const BufferPool* p : reg.pools) {
      a += p->acq_.load(std::memory_order_relaxed);
      r += p->rel_.load(std::memory_order_relaxed);
    }
    return GlobalStats{a, r, static_cast<std::int64_t>(a - r)};
  }

  /// The calling thread's pool. ByteBuffer routes all backing-store
  /// management through this; entities never pass pools explicitly.
  static BufferPool& local() {
    static thread_local BufferPool pool;
    return pool;
  }

 private:
  static constexpr int kMinClassBits = 8;   // 256
  static constexpr int kMaxClassBits = 20;  // 1 MiB
  static constexpr std::size_t kClasses = kMaxClassBits - kMinClassBits + 1;

  /// Size-class index for `capacity`, or -1 when too large to pool.
  [[nodiscard]] static int class_of(std::size_t capacity) {
    if (capacity > kMaxPooledCapacity) return -1;
    const std::size_t c = capacity < kMinCapacity ? kMinCapacity : capacity;
    return std::bit_width(c - 1) - kMinClassBits;
  }
  [[nodiscard]] static std::size_t class_capacity(int cls) {
    return std::size_t{1} << (cls + kMinClassBits);
  }

  /// Live pools plus the folded-in traffic of destroyed ones. Leaked on
  /// purpose: thread_local pools die after function-local statics during
  /// teardown, so the registry must never be destroyed before them.
  struct Registry {
    std::mutex mu;
    std::vector<BufferPool*> pools;
    std::uint64_t retired_acquires = 0;
    std::uint64_t retired_releases = 0;
  };
  static Registry& registry() {
    static Registry* r = new Registry;
    return *r;
  }

  /// Owner-thread increment: a relaxed load/store pair, not an atomic RMW —
  /// only this pool's thread writes, global_stats() merely reads.
  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  static std::uint16_t next_pool_id() {
    static std::atomic<std::uint16_t> v{0};
    return static_cast<std::uint16_t>(v.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  const std::uint16_t id_ = next_pool_id();
  Block* free_[kClasses] = {};
  Stats stats_;
  std::atomic<std::uint64_t> acq_{0};  ///< all acquires, owner-thread written
  std::atomic<std::uint64_t> rel_{0};  ///< all releases, owner-thread written
};

}  // namespace u5g
