#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <set>

namespace elephant::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoundedValuesInRange) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, BoundedZeroIsZero) {
  Rng rng(13);
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, BoundedCoversAllResidues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(DeriveSeed, StreamZeroIsTheBaseSeed) {
  EXPECT_EQ(derive_seed(42, 0), 42u);
  EXPECT_EQ(derive_seed(0xDEADBEEF, 0), 0xDEADBEEFu);
}

TEST(DeriveSeed, DistinctStreamsDistinctSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t id = 0; id < 4096; ++id) seen.insert(derive_seed(42, id));
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(DeriveSeed, StreamsAreIndependent) {
  // The generators seeded from adjacent streams must not be correlated: no
  // output collisions over a short horizon, unlike the additive ad-hoc
  // `seed + i` scheme this helper replaced (where close seeds can yield
  // overlapping splitmix orbits).
  Rng a(derive_seed(7, 1));
  Rng b(derive_seed(7, 2));
  int equal = 0;
  for (int i = 0; i < 256; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(DeriveSeed, StableAcrossReleases) {
  // Bit-for-bit golden values, captured at introduction. These are part of
  // the reproducibility contract: a change here silently re-maps every
  // previously journaled repetition/retry seed.
  EXPECT_EQ(derive_seed(42, 1), 0x28efe333b266f103ull);
  EXPECT_EQ(derive_seed(42, 2), 0x47526757130f9f52ull);
  EXPECT_EQ(derive_seed(43, 1), 0x9cde98852e60034bull);
  EXPECT_EQ(derive_seed(20240817, 7), 0x97e562b797350ab3ull);
}

}  // namespace
}  // namespace elephant::sim
