#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace elephant::sim {

/// Inline, move-only `void()` callable — the event engine's replacement for
/// `std::function<void()>`.
///
/// Every capture the simulator schedules (`[this]`, `[this, interval]`, a
/// handful of words) is stored in a fixed inline buffer, so scheduling never
/// allocates. A capture larger than the buffer does not compile: the bound
/// is part of the constructor's constraints, so
/// `std::is_constructible_v<InplaceCallback, F>` is false for it.
class InplaceCallback {
 public:
  /// Inline capture budget. 64 bytes covers every lambda the simulator
  /// schedules (and a by-value `std::function`, for test convenience) while
  /// keeping a scheduler slot within one cache line pair.
  static constexpr std::size_t kInlineSize = 64;

  InplaceCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InplaceCallback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&> &&
             sizeof(std::remove_cvref_t<F>) <= kInlineSize &&
             alignof(std::remove_cvref_t<F>) <= alignof(std::max_align_t))
  InplaceCallback(F&& f) {  // NOLINT(google-explicit-constructor): intended sink
    using D = std::remove_cvref_t<F>;
    static_assert(std::is_move_constructible_v<D>);
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    vt_ = &vtable_for<D>();
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

  void operator()() { vt_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return vt_ != nullptr; }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-construct into `dst` and destroy the source.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static const VTable& vtable_for() {
    static constexpr VTable vt{
        /*invoke=*/[](void* obj) { (*static_cast<D*>(obj))(); },
        /*relocate=*/
        [](void* dst, void* src) {
          ::new (dst) D(std::move(*static_cast<D*>(src)));
          static_cast<D*>(src)->~D();
        },
        /*destroy=*/[](void* obj) { static_cast<D*>(obj)->~D(); },
    };
    return vt;
  }

  void steal(InplaceCallback& other) {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(storage_, other.storage_);
      other.vt_ = nullptr;
    }
  }

  void destroy() {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[kInlineSize];
};

}  // namespace elephant::sim
