#include <gtest/gtest.h>

#include <typeinfo>

#include "aqm/factory.hpp"
#include "aqm/red.hpp"
#include "test_util.hpp"

namespace elephant::aqm {
namespace {

using test::make_packet;

RedConfig adaptive_cfg(std::size_t limit = 1000 * 8900) {
  RedConfig cfg;
  cfg.limit_bytes = limit;
  cfg.adaptive = true;
  cfg.weight = 0.02;  // fast-moving average so tests converge quickly
  return cfg;
}

/// Drive the queue with a fixed 2-in-1-out pattern for `steps` milliseconds.
void drive(sim::Scheduler& sched, RedQueue& q, int steps, int in_per_ms, int out_per_ms) {
  std::uint64_t i = 1000000;
  for (int step = 0; step < steps; ++step) {
    sched.schedule_at(sched.now() + sim::Time::milliseconds(step + 1), [&q, &i, in_per_ms,
                                                                        out_per_ms] {
      for (int k = 0; k < in_per_ms; ++k) (void)q.enqueue(make_packet(1, i++));
      for (int k = 0; k < out_per_ms; ++k) (void)q.dequeue();
    });
  }
  sched.run();
}

TEST(AdaptiveRed, MaxPStartsAtConfiguredValue) {
  sim::Scheduler sched;
  RedQueue q(sched, adaptive_cfg(), 1);
  EXPECT_DOUBLE_EQ(q.current_max_p(), 0.02);
}

TEST(AdaptiveRed, MaxPRisesWhenQueueSitsHigh) {
  sim::Scheduler sched;
  RedQueue q(sched, adaptive_cfg(), 1);
  // Persistent overload: avg rides above the 0.6 waypoint → max_p must climb.
  drive(sched, q, 8000, 3, 1);
  EXPECT_GT(q.current_max_p(), 0.02);
}

TEST(AdaptiveRed, MaxPFallsWhenQueueStaysLow) {
  sim::Scheduler sched;
  RedConfig cfg = adaptive_cfg();
  cfg.max_p = 0.3;  // start artificially high
  RedQueue q(sched, cfg, 1);
  // Light load: avg below the 0.4 waypoint → max_p decays toward p_min.
  drive(sched, q, 8000, 1, 1);
  EXPECT_LT(q.current_max_p(), 0.3);
}

TEST(AdaptiveRed, MaxPStaysWithinBounds) {
  sim::Scheduler sched;
  RedQueue q(sched, adaptive_cfg(), 1);
  drive(sched, q, 20000, 4, 1);
  EXPECT_LE(q.current_max_p(), 0.5);
  EXPECT_GE(q.current_max_p(), 0.01);
}

TEST(AdaptiveRed, NonAdaptiveMaxPNeverMoves) {
  sim::Scheduler sched;
  RedConfig cfg = adaptive_cfg();
  cfg.adaptive = false;
  RedQueue q(sched, cfg, 1);
  drive(sched, q, 5000, 3, 1);
  EXPECT_DOUBLE_EQ(q.current_max_p(), 0.02);
}

TEST(AdaptiveRed, FactoryKindSetsAdaptive) {
  sim::Scheduler sched;
  auto q = make_queue_disc(AqmKind::kRedAdaptive, sched, 1 << 24, 1);
  EXPECT_EQ(q->name(), "red");  // same algorithm, self-tuned parameters
  const QueueDisc& base = *q;
  ASSERT_EQ(typeid(base), typeid(RedQueue));
  EXPECT_TRUE(static_cast<const RedQueue&>(base).config().adaptive);
}

TEST(AdaptiveRed, ImprovesHighBandwidthUtilization) {
  // The paper's conclusion: RED's high-BW failure is a parameter-tuning
  // problem. Adaptive RED should not do *worse* than static RED at 1G.
  auto fixed = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                  aqm::AqmKind::kRed, 2.0, 1e9, 30);
  auto adaptive = fixed;
  adaptive.aqm = aqm::AqmKind::kRedAdaptive;
  const auto res_fixed = test::run_uncached(fixed);
  const auto res_adaptive = test::run_uncached(adaptive);
  EXPECT_GE(res_adaptive.utilization, res_fixed.utilization - 0.05);
}

}  // namespace
}  // namespace elephant::aqm
