#pragma once
// Small-buffer-optimised, move-only callables used for simulator events.
//
// A Fig-6-scale run schedules hundreds of thousands of events whose closures
// capture one to three words (a `this`, a timestamp, a packet id). With
// `std::function` each of those costs a heap allocation; a `BasicAction`
// stores any nothrow-movable callable of up to `N` bytes (aligned to at most
// `Align`) directly in the event slot and falls back to the heap only for
// oversized or over-aligned captures.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace u5g {

/// Type-erased `void()` callable with `N` bytes of inline storage aligned to
/// `Align`.
template <std::size_t N, std::size_t Align>
class BasicAction {
 public:
  static constexpr std::size_t kInlineSize = N;
  static constexpr std::size_t kInlineAlign = Align;

  /// True when `Fn` is stored in place rather than behind a heap pointer.
  template <typename Fn>
  static constexpr bool kFitsInline = sizeof(Fn) <= N && alignof(Fn) <= Align &&
                                      std::is_nothrow_move_constructible_v<Fn>;

  BasicAction() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, BasicAction> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  BasicAction(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    emplace_impl(std::forward<F>(f));
  }

  /// Destroy any stored callable and construct `f` directly in the inline
  /// buffer. The simulator uses this to build event closures in their final
  /// resting slot, so scheduling never moves an action at all.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, BasicAction> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  void emplace(F&& f) {
    reset();
    emplace_impl(std::forward<F>(f));
  }

  BasicAction(BasicAction&& o) noexcept { move_from(o); }
  BasicAction& operator=(BasicAction&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  BasicAction(const BasicAction&) = delete;
  BasicAction& operator=(const BasicAction&) = delete;
  ~BasicAction() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Destroy the stored callable (releases captured resources eagerly).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* src, void* dst) noexcept;  ///< move to dst, destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename F>
  void emplace_impl(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      static constexpr Ops ops{
          [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
          [](void* src, void* dst) noexcept {
            Fn* s = std::launder(reinterpret_cast<Fn*>(src));
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
          },
          [](void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); }};
      ops_ = &ops;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      static constexpr Ops ops{
          [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
          [](void* src, void* dst) noexcept {
            ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
          },
          [](void* p) noexcept { delete *std::launder(reinterpret_cast<Fn**>(p)); }};
      ops_ = &ops;
    }
  }

  void move_from(BasicAction& o) noexcept {
    if (o.ops_ != nullptr) {
      ops_ = o.ops_;
      ops_->relocate(o.buf_, buf_);
      o.ops_ = nullptr;
    }
  }

  static_assert(N >= sizeof(void*) && Align >= alignof(void*),
                "the heap fallback stores a pointer in the inline buffer");

  alignas(Align) std::byte buf_[N];
  const Ops* ops_ = nullptr;
};

/// The wide action: twenty words, 16-aligned — small lambda captures, a
/// whole `std::function` handed down from legacy call sites, and datapath
/// closures that carry a `ByteBuffer` (64 bytes) plus bookkeeping by value,
/// so moving a packet across an event never heap-allocates.
using Action = BasicAction<20 * sizeof(void*), alignof(std::max_align_t)>;

/// The compact action: five words, pointer-aligned — a `this` plus a few
/// indices or timestamps, which is what most events capture. With its ops
/// pointer it is 48 bytes, so a simulator slot holding one (plus seq and
/// tombstone) is exactly one 64-byte cache line.
using CompactAction = BasicAction<5 * sizeof(void*), alignof(void*)>;

}  // namespace u5g
