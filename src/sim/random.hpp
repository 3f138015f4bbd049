#pragma once

#include <array>
#include <cstdint>

namespace elephant::sim {

/// Deterministic pseudo-random source: xoshiro256++ seeded via splitmix64.
///
/// Every experiment run owns exactly one Rng seeded from the experiment
/// configuration, so repeated runs are bit-reproducible regardless of
/// platform or standard-library version (std::mt19937 distributions are not
/// portable across implementations).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, bound) using Lemire's rejection method.
  std::uint64_t next_below(std::uint64_t bound);

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Derive the seed of sub-stream `stream_id` from a base seed, SplitMix64
/// style: statistically independent streams for distinct ids, stable across
/// platforms and releases (the values are part of the reproducibility
/// contract — see the golden tests in sim_random_test.cpp).
///
/// Stream 0 is the base seed itself, so "the first repetition / the first
/// retry / the cell's own stream" keeps its historical identity and results
/// seeded before this helper existed remain addressable.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream_id);

}  // namespace elephant::sim
