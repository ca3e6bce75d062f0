// Allocation-free move-only callback type for the kernel hot path.
//
// UniqueFunction is the kernel's replacement for std::function<void()>
// in every scheduling path (Environment::schedule, the native clock's
// listener, LinkController::defer, the Radio tx/rx timers). It differs from
// std::function in exactly the two ways the timed queue needs:
//
//  * move-only -- captures are never copied, so move-only state
//    (buffers, unique_ptr guards) can ride in a callback, and no
//    accidental capture copy can survive in a bootstrap path;
//  * a 48-byte inline small-buffer -- every kernel/baseband capture in
//    the tree fits, so steady-state scheduling performs zero heap
//    allocations (std::function's libstdc++ buffer is 16 bytes, which
//    the typical [this]+state captures of the link controller exceed).
//    Oversized captures fall back to a single heap allocation; moves of
//    a heap-backed callback just steal the pointer.
//
// Trivially-copyable captures (the common case: [this], references,
// ints) use a dedicated fast path: no manager function is stored, moves
// are a plain buffer copy and destruction is a no-op, so recycling a
// timer slab slot costs nothing beyond the memcpy.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace btsc::sim {

/// Move-only `void(Args...)` callable with small-buffer-optimized
/// storage. `UniqueFunction` (the kernel's timer callback) is the
/// zero-argument alias; `UniqueCallback<T>` carries by-value arguments
/// through to the capture (used by the Radio RX sink so the per-bit
/// fallback path stays allocation-free).
template <typename... Args>
class UniqueCallback {
 public:
  /// Captures up to this size (and max_align_t alignment) are stored
  /// inline; larger ones take one heap allocation at construction.
  static constexpr std::size_t kInlineCapacity = 48;

  /// True when callables of type F live in the inline buffer.
  template <typename F>
  static constexpr bool stores_inline_v =
      sizeof(F) <= kInlineCapacity &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  UniqueCallback() = default;
  UniqueCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, UniqueCallback> &&
                std::is_invocable_r_v<void, D&, Args...>>>
  UniqueCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  UniqueCallback(UniqueCallback&& other) noexcept { steal(other); }

  UniqueCallback& operator=(UniqueCallback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  UniqueCallback& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  UniqueCallback(const UniqueCallback&) = delete;
  UniqueCallback& operator=(const UniqueCallback&) = delete;

  ~UniqueCallback() { reset(); }

  /// Destroys the captured state (frees the heap block for oversized
  /// captures) and leaves the object empty.
  void reset() {
    if (manage_ != nullptr) manage_(storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// Destroys the current payload and constructs a new one from `f` in
  /// place -- the kernel's schedule path builds the capture directly in
  /// the timer slab node instead of moving a temporary through.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<D, UniqueCallback>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(std::is_invocable_r_v<void, D&, Args...>);
      reset();
      construct<D>(std::forward<F>(f));
    }
  }

  explicit operator bool() const { return invoke_ != nullptr; }
  friend bool operator==(const UniqueCallback& f, std::nullptr_t) {
    return !f;
  }

  void operator()(Args... args) {
    assert(invoke_ != nullptr && "invoking an empty UniqueCallback");
    invoke_(storage_, args...);
  }

 private:
  union Storage {
    void* heap;
    alignas(std::max_align_t) unsigned char buf[kInlineCapacity];
  };

  using Invoke = void (*)(Storage&, Args...);
  /// src != nullptr: move-construct src's payload into dst and destroy
  /// src's. src == nullptr: destroy dst's payload.
  using Manage = void (*)(Storage& dst, Storage* src);

  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (stores_inline_v<D>) {
      ::new (static_cast<void*>(storage_.buf)) D(std::forward<F>(f));
      invoke_ = [](Storage& s, Args... args) {
        (*std::launder(reinterpret_cast<D*>(s.buf)))(args...);
      };
      if constexpr (std::is_trivially_copyable_v<D> &&
                    std::is_trivially_destructible_v<D>) {
        // Fast path: no manager; moves are a buffer copy, destruction
        // is a no-op (see steal()/reset()).
        manage_ = nullptr;
      } else {
        manage_ = [](Storage& dst, Storage* src) {
          if (src != nullptr) {
            D* from = std::launder(reinterpret_cast<D*>(src->buf));
            ::new (static_cast<void*>(dst.buf)) D(std::move(*from));
            from->~D();
          } else {
            std::launder(reinterpret_cast<D*>(dst.buf))->~D();
          }
        };
      }
    } else {
      storage_.heap = new D(std::forward<F>(f));
      invoke_ = [](Storage& s, Args... args) {
        (*static_cast<D*>(s.heap))(args...);
      };
      manage_ = [](Storage& dst, Storage* src) {
        if (src != nullptr) {
          dst.heap = src->heap;  // pointer steal: no allocation on move
        } else {
          delete static_cast<D*>(dst.heap);
        }
      };
    }
  }

  /// Takes other's payload; assumes *this is empty. Leaves other empty.
  void steal(UniqueCallback& other) noexcept {
    if (other.manage_ != nullptr) {
      other.manage_(storage_, &other.storage_);
    } else if (other.invoke_ != nullptr) {
      // Trivial payload: a buffer copy is a valid move.
      std::memcpy(storage_.buf, other.storage_.buf, kInlineCapacity);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  Storage storage_;
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

/// The kernel's zero-argument timer/process callback.
using UniqueFunction = UniqueCallback<>;

}  // namespace btsc::sim
