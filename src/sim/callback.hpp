#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace elephant::sim {

/// Small-buffer-optimized, move-only `void()` callable — the event engine's
/// replacement for `std::function<void()>`.
///
/// The captures that dominate the scheduler hot path (`[this]`,
/// `[this, interval]`, a handful of words) are stored inline, so scheduling
/// them never allocates. Oversized captures (a full ~120-byte `net::Packet`
/// on the fault-perturbed delivery path, fault-plan events) are placed in
/// fixed-size blocks recycled through a thread-local free list: after the
/// first few events of a run the slab is warm and the steady state performs
/// zero heap allocations. A capture beyond the block size does not compile.
class InplaceCallback {
 public:
  /// Inline capture budget. 64 bytes covers every hot-path lambda in the
  /// simulator (and a by-value `std::function`, for test convenience) while
  /// keeping a scheduler slot within one cache line pair.
  static constexpr std::size_t kInlineSize = 64;
  /// Pooled block size for oversized captures (packet-carrying lambdas).
  static constexpr std::size_t kBlockSize = 192;

  InplaceCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InplaceCallback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  InplaceCallback(F&& f) {  // NOLINT(google-explicit-constructor): intended sink
    using D = std::remove_cvref_t<F>;
    static_assert(std::is_move_constructible_v<D>);
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_.inline_bytes)) D(std::forward<F>(f));
      vt_ = &vtable_for<D, Store::kInline>();
    } else {
      static_assert(sizeof(D) <= kBlockSize && alignof(D) <= alignof(std::max_align_t),
                    "capture exceeds InplaceCallback's pooled block");
      storage_.heap = pool_alloc();
      ::new (storage_.heap) D(std::forward<F>(f));
      vt_ = &vtable_for<D, Store::kPooled>();
    }
  }

  InplaceCallback(InplaceCallback&& other) noexcept { steal(other); }

  InplaceCallback& operator=(InplaceCallback&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }

  InplaceCallback(const InplaceCallback&) = delete;
  InplaceCallback& operator=(const InplaceCallback&) = delete;

  ~InplaceCallback() { destroy(); }

  void operator()() { vt_->invoke(object()); }

  [[nodiscard]] explicit operator bool() const { return vt_ != nullptr; }

  /// True when the capture lives in the inline buffer (observability for the
  /// allocation tests; callers never need to care).
  [[nodiscard]] bool is_inline() const {
    return vt_ != nullptr && vt_->store == Store::kInline;
  }

 private:
  enum class Store : unsigned char { kInline, kPooled };

  struct VTable {
    void (*invoke)(void*);
    /// Move-construct into `dst` and destroy the source (inline captures
    /// only; pooled captures relocate by pointer swap).
    void (*relocate)(void* dst, void* src);
    void (*destroy_free)(void*);
    Store store;
  };

  union Storage {
    void* heap;
    alignas(std::max_align_t) std::byte inline_bytes[kInlineSize];
  };

  // --- thread-local free-list slab for pooled blocks ---
  struct Pool {
    void* free_head = nullptr;
    ~Pool() {
      while (free_head != nullptr) {
        void* next = *static_cast<void**>(free_head);
        ::operator delete(free_head, std::align_val_t{alignof(std::max_align_t)});
        free_head = next;
      }
    }
  };
  static Pool& pool() {
    thread_local Pool p;
    return p;
  }
  static void* pool_alloc() {
    Pool& p = pool();
    if (p.free_head != nullptr) {
      void* block = p.free_head;
      p.free_head = *static_cast<void**>(block);
      return block;
    }
    return ::operator new(kBlockSize, std::align_val_t{alignof(std::max_align_t)});
  }
  static void pool_free(void* block) {
    Pool& p = pool();
    *static_cast<void**>(block) = p.free_head;
    p.free_head = block;
  }

  template <typename D, Store S>
  static const VTable& vtable_for() {
    static constexpr VTable vt{
        /*invoke=*/[](void* obj) { (*static_cast<D*>(obj))(); },
        /*relocate=*/
        [](void* dst, void* src) {
          ::new (dst) D(std::move(*static_cast<D*>(src)));
          static_cast<D*>(src)->~D();
        },
        /*destroy_free=*/
        [](void* obj) {
          static_cast<D*>(obj)->~D();
          if constexpr (S == Store::kPooled) pool_free(obj);
        },
        /*store=*/S,
    };
    return vt;
  }

  void* object() {
    return vt_->store == Store::kInline ? static_cast<void*>(storage_.inline_bytes)
                                        : storage_.heap;
  }

  void steal(InplaceCallback& other) {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      if (vt_->store == Store::kInline) {
        vt_->relocate(storage_.inline_bytes, other.storage_.inline_bytes);
      } else {
        storage_.heap = other.storage_.heap;
      }
      other.vt_ = nullptr;
    }
  }

  void destroy() {
    if (vt_ != nullptr) {
      vt_->destroy_free(object());
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  Storage storage_;
};

}  // namespace elephant::sim
