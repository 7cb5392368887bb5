#pragma once
// Byte-buffer type for PDUs moving through the stack.
//
// Protocol layers prepend/strip headers; `ByteBuffer` models that with
// explicit push/pop operations over pooled backing stores:
//
//  * Storage comes from the calling thread's `BufferPool` freelists, so the
//    warm per-packet path never touches the heap. Small buffers (control
//    PDUs: a BSR CE, an SR payload) live inline in the object itself.
//  * The payload window sits between *headroom* (for `push_header`) and
//    *tailroom* (for `append`), so both directions of growth are in-place
//    writes until the reserves run out; only then does the buffer migrate
//    to a larger pooled block.
//
// Invalidation contract: spans returned by `bytes()` and `pop_header()` are
// views into the current backing store. Any mutating operation that can
// relocate or overwrite storage — `push_header`, `append`, `append_zeros`,
// `reserve_tail` — invalidates all previously returned spans (`push_header`
// reuses the very bytes a popped header span pointed at). `pop_header` and
// `truncate_back` only move the window and leave storage in place. The
// `generation()` counter increments on every invalidating operation so
// debug code and tests can assert a span is still current:
//
//   const auto gen = buf.generation();
//   auto view = buf.bytes();
//   ...
//   assert(buf.generation() == gen && "view invalidated by a mutation");

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>

#include "common/buffer_pool.hpp"

namespace u5g {

/// Growable byte sequence with cheap header prepend (headroom) and cheap
/// append (tailroom), backed by recycled pool blocks.
class ByteBuffer {
 public:
  ByteBuffer() = default;

  /// A buffer of `payload_size` bytes, each set to `fill`.
  explicit ByteBuffer(std::size_t payload_size, std::uint8_t fill = 0) {
    init_storage(payload_size);
    std::memset(storage() + begin_, fill, payload_size);
  }

  /// A buffer of `payload_size` bytes with *indeterminate* contents — for
  /// callers that immediately overwrite the whole payload (copies, RLC
  /// segment assembly), avoiding the zero-fill-then-copy double write.
  [[nodiscard]] static ByteBuffer uninitialized(std::size_t payload_size) {
    ByteBuffer b;
    b.init_storage(payload_size);
    return b;
  }

  static ByteBuffer from_bytes(std::span<const std::uint8_t> bytes) {
    ByteBuffer b = uninitialized(bytes.size());
    std::memcpy(b.storage() + b.begin_, bytes.data(), bytes.size());
    return b;
  }

  ByteBuffer(const ByteBuffer& o) { copy_from(o); }
  ByteBuffer& operator=(const ByteBuffer& o) {
    if (this != &o) {
      release();
      copy_from(o);
    }
    return *this;
  }

  ByteBuffer(ByteBuffer&& o) noexcept { steal_from(o); }
  ByteBuffer& operator=(ByteBuffer&& o) noexcept {
    if (this != &o) {
      release();
      steal_from(o);
    }
    return *this;
  }

  ~ByteBuffer() { release(); }

  [[nodiscard]] std::size_t size() const { return end_ - begin_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] std::span<std::uint8_t> bytes() { return {storage() + begin_, size()}; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {storage() + begin_, size()};
  }

  /// Prepend `header` in front of the current contents. Invalidates spans.
  void push_header(std::span<const std::uint8_t> header) {
    if (header.size() > begin_) grow_front(header.size());
    begin_ -= static_cast<std::uint32_t>(header.size());
    std::memcpy(storage() + begin_, header.data(), header.size());
    ++generation_;
  }

  /// Remove and return a view of the first `n` bytes. The view points into
  /// this buffer's headroom and is invalidated by the next `push_header`
  /// or storage-moving operation (see the invalidation contract above).
  /// Throws std::length_error if the buffer is shorter than `n`.
  std::span<const std::uint8_t> pop_header(std::size_t n) {
    if (n > size()) throw std::length_error{"ByteBuffer::pop_header past end"};
    std::span<const std::uint8_t> h{storage() + begin_, n};
    begin_ += static_cast<std::uint32_t>(n);
    return h;
  }

  /// Remove `n` bytes from the end (strip trailer / truncate).
  void truncate_back(std::size_t n) {
    if (n > size()) throw std::length_error{"ByteBuffer::truncate_back past end"};
    end_ -= static_cast<std::uint32_t>(n);
  }

  /// Append bytes at the end. Invalidates spans.
  void append(std::span<const std::uint8_t> tail) {
    if (end_ + tail.size() > capacity()) grow_back(tail.size());
    std::memcpy(storage() + end_, tail.data(), tail.size());
    end_ += static_cast<std::uint32_t>(tail.size());
    ++generation_;
  }

  /// Append `n` zero bytes (MAC padding) without a scratch buffer.
  void append_zeros(std::size_t n) {
    if (end_ + n > capacity()) grow_back(n);
    std::memset(storage() + end_, 0, n);
    end_ += static_cast<std::uint32_t>(n);
    ++generation_;
  }

  /// Ensure `n` bytes of tailroom so the following appends are in-place.
  /// Invalidates spans when it has to migrate storage.
  void reserve_tail(std::size_t n) {
    if (end_ + n > capacity()) grow_back(n);
  }

  /// Mutation counter for the invalidation contract: compare against a
  /// saved value to assert that previously obtained spans are still valid.
  [[nodiscard]] std::uint32_t generation() const { return generation_; }

  /// True when the payload lives in the inline small-buffer storage (no
  /// pooled block held) — control PDUs on the warm path stay inline.
  [[nodiscard]] bool is_inline() const { return block_ == nullptr; }

 private:
  /// Headroom reserved in pooled blocks for the header stack (SDAP + PDCP +
  /// RLC + GTP-U worst case is well under this) and tailroom for trailers
  /// (PDCP MAC-I) and MAC padding.
  static constexpr std::size_t kHeadroom = 64;
  static constexpr std::size_t kTailroom = 64;
  /// Inline (small-buffer) capacity and the headroom carved out of it.
  static constexpr std::size_t kInlineCapacity = 40;
  static constexpr std::size_t kInlineHeadroom = 8;

  [[nodiscard]] std::uint8_t* storage() { return block_ != nullptr ? block_->data() : inline_; }
  [[nodiscard]] const std::uint8_t* storage() const {
    return block_ != nullptr ? block_->data() : inline_;
  }
  [[nodiscard]] std::size_t capacity() const {
    return block_ != nullptr ? block_->capacity : kInlineCapacity;
  }

  void init_storage(std::size_t payload_size) {
    if (payload_size <= kInlineCapacity - kInlineHeadroom) {
      begin_ = kInlineHeadroom;
    } else {
      block_ = BufferPool::local().acquire(kHeadroom + payload_size + kTailroom);
      begin_ = kHeadroom;
    }
    end_ = begin_ + static_cast<std::uint32_t>(payload_size);
  }

  void release() {
    if (block_ != nullptr) {
      BufferPool::local().release(block_);
      block_ = nullptr;
    }
  }

  void copy_from(const ByteBuffer& o) {
    // Preserve the window offsets (and therefore the remaining head/tail
    // reserves); only the live payload bytes are copied.
    if (o.block_ != nullptr) {
      block_ = BufferPool::local().acquire(o.block_->capacity);
    } else {
      block_ = nullptr;
    }
    begin_ = o.begin_;
    end_ = o.end_;
    generation_ = o.generation_;
    std::memcpy(storage() + begin_, o.storage() + o.begin_, o.size());
  }

  void steal_from(ByteBuffer& o) noexcept {
    block_ = o.block_;
    begin_ = o.begin_;
    end_ = o.end_;
    generation_ = o.generation_;
    if (block_ == nullptr) {
      std::memcpy(inline_ + begin_, o.inline_ + begin_, o.size());
    }
    o.block_ = nullptr;
    o.begin_ = o.end_ = kInlineHeadroom;
  }

  /// Re-home the payload with at least `need` bytes of headroom (plus the
  /// standard reserve on top, mirroring the pre-pool regrowth policy).
  void grow_front(std::size_t need) {
    relocate(need + kHeadroom, kTailroom);
  }

  /// Re-home (or first promote from inline) with `need` bytes of tailroom.
  void grow_back(std::size_t need) {
    relocate(begin_ > kHeadroom ? begin_ : kHeadroom, need + kTailroom);
  }

  void relocate(std::size_t new_headroom, std::size_t new_tailroom) {
    // Read the source before acquiring: GCC then keeps the pooled-block
    // path it already proved, instead of re-checking block_ after the pool
    // call and warning (-Warray-bounds) about a copy out of the inline bytes.
    const std::size_t n = size();
    const std::uint8_t* src = storage() + begin_;
    BufferPool::Block* grown = BufferPool::local().acquire(new_headroom + n + new_tailroom);
    std::memcpy(grown->data() + new_headroom, src, n);
    release();
    block_ = grown;
    begin_ = static_cast<std::uint32_t>(new_headroom);
    end_ = static_cast<std::uint32_t>(new_headroom + n);
    ++generation_;
  }

  std::uint8_t inline_[kInlineCapacity];  ///< small-buffer storage (SBO)
  BufferPool::Block* block_ = nullptr;    ///< pooled storage; null = inline
  std::uint32_t begin_ = kInlineHeadroom;  ///< payload window [begin_, end_)
  std::uint32_t end_ = kInlineHeadroom;
  std::uint32_t generation_ = 0;
};

/// Big-endian integer encode/decode helpers for protocol headers.
inline void put_be16(std::span<std::uint8_t> out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 8);
  out[1] = static_cast<std::uint8_t>(v);
}
inline void put_be32(std::span<std::uint8_t> out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}
[[nodiscard]] inline std::uint16_t get_be16(std::span<const std::uint8_t> in) {
  return static_cast<std::uint16_t>((in[0] << 8) | in[1]);
}
[[nodiscard]] inline std::uint32_t get_be32(std::span<const std::uint8_t> in) {
  return (static_cast<std::uint32_t>(in[0]) << 24) | (static_cast<std::uint32_t>(in[1]) << 16) |
         (static_cast<std::uint32_t>(in[2]) << 8) | static_cast<std::uint32_t>(in[3]);
}

}  // namespace u5g
