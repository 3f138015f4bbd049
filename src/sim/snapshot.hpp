#pragma once
// Kept under this name because perfbench/perfbench.cpp includes it.

#include <cstdint>

namespace elephant::sim {

/// FNV-1a fold helpers for digests.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

[[nodiscard]] inline std::uint64_t fnv1a_fold(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace elephant::sim
