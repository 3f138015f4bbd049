// Unit tests for the event-engine building blocks introduced with the
// allocation-free scheduler: InplaceCallback (inline-only storage),
// RingDeque (grow-only ring with deque semantics) and re-armable
// TimerHandles.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/callback.hpp"
#include "sim/ring_deque.hpp"
#include "sim/scheduler.hpp"

namespace elephant::sim {
namespace {

// --- InplaceCallback -------------------------------------------------------

TEST(InplaceCallback, EmptyIsFalsey) {
  InplaceCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
}

// The inline buffer is the only storage: a capture that fits converts, one
// byte more does not compile.
struct Fits {
  std::array<std::byte, InplaceCallback::kInlineSize> payload{};
  void operator()() const {}
};
struct Big {
  std::array<std::byte, InplaceCallback::kInlineSize + 1> payload{};
  void operator()() const {}
};
static_assert(std::is_constructible_v<InplaceCallback, Fits>);
static_assert(!std::is_constructible_v<InplaceCallback, Big>);

TEST(InplaceCallback, SmallCaptureStaysInline) {
  int hits = 0;
  InplaceCallback cb([&hits] { ++hits; });
  cb();
  cb();
  EXPECT_EQ(hits, 2);
  // A capture that fills the buffer survives a move intact.
  std::array<std::uint64_t, InplaceCallback::kInlineSize / 8 - 1> payload{};
  payload.back() = 42;
  std::uint64_t seen = 0;
  auto fill = [payload, out = &seen] { *out = payload.back(); };
  static_assert(sizeof(fill) == InplaceCallback::kInlineSize);
  InplaceCallback full(std::move(fill));
  InplaceCallback moved(std::move(full));
  moved();
  EXPECT_EQ(seen, 42u);
}

TEST(InplaceCallback, MovePreservesTarget) {
  auto state = std::make_shared<int>(0);
  InplaceCallback a([state] { ++*state; });
  InplaceCallback b(std::move(a));
  InplaceCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(*state, 1);
}

TEST(InplaceCallback, DestroysCaptureExactlyOnce) {
  auto state = std::make_shared<int>(7);
  EXPECT_EQ(state.use_count(), 1);
  {
    InplaceCallback a([state] {});
    EXPECT_EQ(state.use_count(), 2);
    InplaceCallback b(std::move(a));
    EXPECT_EQ(state.use_count(), 2);  // moved, not copied
  }
  EXPECT_EQ(state.use_count(), 1);
}

// --- RingDeque -------------------------------------------------------------

TEST(RingDeque, PushPopFifoOrder) {
  RingDeque<int> d;
  for (int i = 0; i < 100; ++i) d.push_back(i);
  EXPECT_EQ(d.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(d.front(), i);
    d.pop_front();
  }
  EXPECT_TRUE(d.empty());
}

TEST(RingDeque, WrapsAroundWithoutGrowing) {
  RingDeque<int> d;
  d.reserve(16);
  const std::size_t cap = d.capacity();
  // Slide a window of 5 elements through many wraps.
  int next = 0, expect = 0;
  for (int i = 0; i < 5; ++i) d.push_back(next++);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(d.front(), expect++);
    d.pop_front();
    d.push_back(next++);
  }
  EXPECT_EQ(d.capacity(), cap) << "sliding window must not grow the ring";
  EXPECT_EQ(d.size(), 5u);
}

TEST(RingDeque, GrowPreservesOrderAcrossWrap) {
  RingDeque<std::string> d;
  // Force a wrapped layout, then grow: elements must come out in order.
  for (int i = 0; i < 12; ++i) d.push_back("x" + std::to_string(i));
  for (int i = 0; i < 8; ++i) d.pop_front();
  for (int i = 12; i < 40; ++i) d.push_back("x" + std::to_string(i));  // grows
  int expect = 8;
  while (!d.empty()) {
    EXPECT_EQ(d.front(), "x" + std::to_string(expect++));
    d.pop_front();
  }
  EXPECT_EQ(expect, 40);
}

TEST(RingDeque, RandomAccessAndBack) {
  RingDeque<int> d;
  for (int i = 0; i < 20; ++i) d.push_back(i);
  for (int i = 0; i < 7; ++i) d.pop_front();
  EXPECT_EQ(d[0], 7);
  EXPECT_EQ(d[12], 19);
  EXPECT_EQ(d.back(), 19);
  d.back() = 99;
  EXPECT_EQ(d[12], 99);
}

// --- TimerHandle -----------------------------------------------------------

TEST(TimerHandle, FiresAtRearmedDeadline) {
  Scheduler s;
  std::vector<Time> fires;
  TimerHandle t;
  t.init(s, [&] { fires.push_back(s.now()); });
  EXPECT_FALSE(t.armed());
  t.rearm(Time::milliseconds(5));
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(t.deadline(), Time::milliseconds(5));
  s.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], Time::milliseconds(5));
  EXPECT_FALSE(t.armed());
}

TEST(TimerHandle, RearmWhilePendingMovesTheDeadline) {
  Scheduler s;
  std::vector<Time> fires;
  TimerHandle t;
  t.init(s, [&] { fires.push_back(s.now()); });
  t.rearm(Time::milliseconds(50));
  t.rearm(Time::milliseconds(10));  // earlier
  s.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], Time::milliseconds(10));
}

TEST(TimerHandle, RearmFromOwnCallbackIsPeriodic) {
  Scheduler s;
  int fires = 0;
  TimerHandle t;
  t.init(s, [&] {
    if (++fires < 5) t.rearm(s.now() + Time::milliseconds(10));
  });
  t.rearm(Time::milliseconds(10));
  s.run();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(s.now(), Time::milliseconds(50));
}

TEST(TimerHandle, DisarmPreventsFire) {
  Scheduler s;
  int fires = 0;
  TimerHandle t;
  t.init(s, [&] { ++fires; });
  t.rearm(Time::milliseconds(5));
  t.disarm();
  EXPECT_FALSE(t.armed());
  s.run();
  EXPECT_EQ(fires, 0);
  // The slot survives disarm: the timer can be armed again.
  t.rearm(s.now() + Time::milliseconds(5));
  s.run();
  EXPECT_EQ(fires, 1);
}

TEST(TimerHandle, DestructionWhileArmedIsClean) {
  Scheduler s;
  int fires = 0;
  {
    TimerHandle t;
    t.init(s, [&] { ++fires; });
    t.rearm(Time::milliseconds(5));
  }  // destroyed while armed
  s.run();
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(TimerHandle, SameInstantFifoAgainstOneShots) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::milliseconds(1), [&] { order.push_back(0); });
  TimerHandle t;
  t.init(s, [&] { order.push_back(1); });
  t.rearm(Time::milliseconds(1));
  s.schedule_at(Time::milliseconds(1), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TimerHandle, RearmRedrawsFifoRank) {
  Scheduler s;
  std::vector<int> order;
  TimerHandle t;
  t.init(s, [&] { order.push_back(0); });
  t.rearm(Time::milliseconds(1));
  s.schedule_at(Time::milliseconds(1), [&] { order.push_back(1); });
  // Re-arming to the same instant AFTER the one-shot was scheduled must
  // place the timer behind it, exactly as cancel + re-schedule would have.
  t.rearm(Time::milliseconds(1));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

// --- slot recycling under churn -------------------------------------------

TEST(SchedulerSlots, IdsStayDeadAcrossHeavyRecycling) {
  Scheduler s;
  const EventId first = s.schedule_at(Time::milliseconds(1), [] {});
  s.cancel(first);
  // Recycle the free slot many times; the original id must stay dead even
  // though its slot index is reused (generation tag, not watermark).
  for (int i = 0; i < 100; ++i) {
    const EventId id = s.schedule_at(Time::milliseconds(1), [] {});
    EXPECT_TRUE(s.pending(id));
    s.cancel(id);
    EXPECT_FALSE(s.pending(first));
  }
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
}

}  // namespace
}  // namespace elephant::sim
