#include "aqm/factory.hpp"

#include <gtest/gtest.h>

#include <typeinfo>

#include "test_util.hpp"

namespace elephant::aqm {
namespace {

TEST(AqmFactory, BuildsEveryKind) {
  sim::Scheduler sched;
  for (const AqmKind kind :
       {AqmKind::kFifo, AqmKind::kRed, AqmKind::kFqCodel, AqmKind::kCodel}) {
    auto q = make_queue_disc(kind, sched, 1 << 20, 1);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->name(), to_string(kind));
    EXPECT_EQ(q->byte_length(), 0u);
  }
}

TEST(AqmFactory, AppliesLimit) {
  sim::Scheduler sched;
  auto q = make_queue_disc(AqmKind::kFifo, sched, 2 * 8900, 1);
  EXPECT_TRUE(q->enqueue(test::make_packet(1, 0)));
  EXPECT_TRUE(q->enqueue(test::make_packet(1, 1)));
  EXPECT_FALSE(q->enqueue(test::make_packet(1, 2)));
}

TEST(AqmFactory, EcnOptionFlowsThrough) {
  sim::Scheduler sched;
  auto red = make_queue_disc(AqmKind::kRed, sched, 1 << 20, 1, /*ecn=*/true);
  ASSERT_NE(red, nullptr);
  const QueueDisc& base = *red;
  ASSERT_EQ(typeid(base), typeid(RedQueue));
  EXPECT_TRUE(static_cast<const RedQueue&>(base).config().ecn);
}

TEST(AqmFactory, RedSeedDeterminism) {
  sim::Scheduler sched;
  auto run_drops = [&](std::uint64_t seed) {
    auto q = make_queue_disc(AqmKind::kRed, sched, 100 * 8900, seed);
    std::uint64_t drops = 0;
    for (std::uint64_t i = 0; i < 3000; ++i) {
      if (!q->enqueue(test::make_packet(1, i))) ++drops;
      if (i % 2 == 0) (void)q->dequeue();
    }
    return drops;
  };
  EXPECT_EQ(run_drops(9), run_drops(9));
}

}  // namespace
}  // namespace elephant::aqm
