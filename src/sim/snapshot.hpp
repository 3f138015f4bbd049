#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace elephant::sim {

/// Byte-buffer serializer behind the cell's state hash (exp::Cell::state_hash).
/// Each stateful component's save() appends its full mutable state in a
/// fixed, documented order — every field that can change what the run does
/// next, and no wiring (pointers, callbacks, immutable config). The bytes are
/// hashed, never read back, so the format is process-private (host byte
/// order, no framing): it identifies a state for the model checker's
/// explored-state dedup, not an interchange format.
class SnapshotWriter {
 public:
  /// Append a trivially-copyable value verbatim.
  template <typename T>
  void put_pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "put_pod requires a trivially copyable type");
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void put_u8(std::uint8_t v) { put_pod(v); }
  void put_u32(std::uint32_t v) { put_pod(v); }
  void put_u64(std::uint64_t v) { put_pod(v); }
  void put_i64(std::int64_t v) { put_pod(v); }
  void put_f64(double v) { put_pod(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  /// Append a counted run of trivially-copyable elements.
  template <typename T>
  void put_pod_span(const T* data, std::size_t n) {
    put_u64(static_cast<std::uint64_t>(n));
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n * sizeof(T));
  }

  template <typename T>
  void put_pod_vector(const std::vector<T>& v) {
    put_pod_span(v.data(), v.size());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// FNV-1a fold helpers for state hashing (dedup of explored states).
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

[[nodiscard]] inline std::uint64_t fnv1a_fold(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a_bytes(std::uint64_t h, const std::uint8_t* p,
                                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace elephant::sim
