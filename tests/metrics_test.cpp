#include <gtest/gtest.h>

#include <array>

#include "metrics/fairness.hpp"

namespace elephant::metrics {
namespace {

TEST(Jain, PerfectFairnessIsOne) {
  const std::array<double, 2> equal = {100.0, 100.0};
  EXPECT_DOUBLE_EQ(jain_index(equal), 1.0);
  const std::array<double, 5> equal5 = {7, 7, 7, 7, 7};
  EXPECT_DOUBLE_EQ(jain_index(equal5), 1.0);
}

TEST(Jain, TotalStarvationIsHalfForTwoFlows) {
  const std::array<double, 2> starved = {100.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(starved), 0.5);
}

TEST(Jain, MatchesPaperEquationForTwoSenders) {
  // J = (S1+S2)^2 / (2 (S1^2+S2^2)).
  const std::array<double, 2> s = {80.0, 20.0};
  const double expected = (100.0 * 100.0) / (2.0 * (6400.0 + 400.0));
  EXPECT_DOUBLE_EQ(jain_index(s), expected);
}

TEST(Jain, BoundedBetweenInverseNAndOne) {
  const std::array<double, 4> skewed = {1000, 1, 1, 1};
  const double j = jain_index(skewed);
  EXPECT_GE(j, 0.25);
  EXPECT_LE(j, 1.0);
}

TEST(Jain, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(jain_index(std::span<const double>{}), 1.0);
  const std::array<double, 3> zeros = {0, 0, 0};
  EXPECT_DOUBLE_EQ(jain_index(zeros), 1.0);
}

TEST(Jain, ScaleInvariant) {
  const std::array<double, 3> a = {1, 2, 3};
  const std::array<double, 3> b = {10, 20, 30};
  EXPECT_DOUBLE_EQ(jain_index(a), jain_index(b));
}

TEST(Utilization, FullLinkIsOne) {
  const std::array<double, 2> flows = {5e8, 5e8};
  EXPECT_DOUBLE_EQ(link_utilization(flows, 1e9), 1.0);
}

TEST(Utilization, HalfLink) {
  const std::array<double, 1> flows = {5e8};
  EXPECT_DOUBLE_EQ(link_utilization(flows, 1e9), 0.5);
}

TEST(Utilization, ZeroBandwidthGuard) {
  const std::array<double, 1> flows = {5e8};
  EXPECT_DOUBLE_EQ(link_utilization(flows, 0), 0.0);
}

}  // namespace
}  // namespace elephant::metrics
