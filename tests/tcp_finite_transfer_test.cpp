#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "tcp/flow.hpp"

namespace elephant::tcp {
namespace {

struct Fixture {
  sim::Scheduler sched;
  net::Dumbbell net;
  Fixture() : net(sched, topo()) {}
  static net::DumbbellConfig topo() {
    net::DumbbellConfig cfg;
    cfg.bottleneck_bps = 100e6;
    cfg.bottleneck_buffer_bytes = static_cast<std::size_t>(2 * 100e6 * 0.062 / 8);
    return cfg;
  }
  Flow flow(net::FlowId id, std::uint64_t bytes, sim::Time start = sim::Time::zero(),
            std::uint32_t agg = 1) {
    FlowConfig fc;
    fc.id = id;
    fc.cca = cca::CcaKind::kCubic;
    fc.transfer_bytes = bytes;
    fc.start_time = start;
    fc.agg = agg;
    fc.seed = id;
    return Flow(sched, net.client(0), net.server(0), fc);
  }
};

TEST(FiniteTransfer, CompletesAndRecordsFct) {
  Fixture f;
  Flow mouse = f.flow(1, 890'000);  // 100 units
  mouse.start();
  f.sched.run_until(sim::Time::seconds(5));
  EXPECT_TRUE(mouse.completed());
  // ≥1 RTT; well under a second at 100 Mb/s.
  EXPECT_GT(mouse.completion_time(), sim::Time::milliseconds(62));
  EXPECT_LT(mouse.completion_time(), sim::Time::seconds(1));
}

TEST(FiniteTransfer, DeliversExactlyTheObject) {
  Fixture f;
  Flow mouse = f.flow(1, 890'000);
  mouse.start();
  f.sched.run_until(sim::Time::seconds(5));
  EXPECT_EQ(mouse.receiver().delivered_units(), 100u);
  EXPECT_EQ(mouse.receiver().delivered_bytes(), 890'000u);
}

TEST(FiniteTransfer, SizeRoundsUpToUnits) {
  Fixture f;
  Flow odd = f.flow(1, 10'000, sim::Time::zero(), /*agg=*/1);  // 2 units of 8900
  odd.start();
  f.sched.run_until(sim::Time::seconds(2));
  EXPECT_TRUE(odd.completed());
  EXPECT_EQ(odd.receiver().delivered_units(), 2u);
}

TEST(FiniteTransfer, FctMeasuredFromConfiguredStart) {
  Fixture f;
  Flow late = f.flow(1, 890'000, sim::Time::seconds(3));
  late.start();
  f.sched.run_until(sim::Time::seconds(10));
  ASSERT_TRUE(late.completed());
  EXPECT_LT(late.completion_time(), sim::Time::seconds(2));
}

TEST(FiniteTransfer, UnboundedFlowNeverCompletes) {
  Fixture f;
  Flow elephant = f.flow(1, 0);
  elephant.start();
  f.sched.run_until(sim::Time::seconds(3));
  EXPECT_FALSE(elephant.completed());
  EXPECT_EQ(elephant.completion_time(), sim::Time::zero());
}

TEST(FiniteTransfer, CompletesDespiteLosses) {
  Fixture f;
  // Elephant floods the queue; the mouse still completes (retransmissions).
  Flow elephant = f.flow(1, 0);
  Flow mouse = f.flow(2, 890'000, sim::Time::seconds(2));
  elephant.start();
  mouse.start();
  f.sched.run_until(sim::Time::seconds(30));
  EXPECT_TRUE(mouse.completed());
}

TEST(FiniteTransfer, CompletionCallbackFiresOnceAndReleasesTimers) {
  Fixture f;
  Flow mouse = f.flow(1, 890'000);
  struct Seen {
    sim::Scheduler* sched;
    int completions = 0;
    sim::Time at;
  } seen{&f.sched, 0, sim::Time::zero()};
  mouse.sender().set_on_complete(
      [](void* ctx) {
        auto* s = static_cast<Seen*>(ctx);
        ++s->completions;
        s->at = s->sched->now();
      },
      &seen);
  mouse.start();
  // Unbounded run: terminates only when no events remain. A dangling
  // RTO timer (>= 200 ms min RTO) would hold the run open well past the
  // completion instant; the delayed-ACK timer accounts for at most 40 ms.
  f.sched.run();
  ASSERT_TRUE(mouse.completed());
  EXPECT_EQ(seen.completions, 1);
  EXPECT_EQ(seen.at, mouse.sender().completion_time());
  EXPECT_LE(f.sched.now(), mouse.sender().completion_time() + sim::Time::milliseconds(100));
  EXPECT_EQ(f.sched.pending_events(), 0u);
}

TEST(AppLimited, SendsOnlyOfferedData) {
  Fixture f;
  FlowConfig fc;
  fc.id = 1;
  fc.cca = cca::CcaKind::kCubic;
  fc.app_limited = true;
  fc.seed = 1;
  Flow flow(f.sched, f.net.client(0), f.net.server(0), fc);
  flow.start();
  flow.sender().offer_units(10);
  f.sched.run_until(sim::Time::seconds(5));
  EXPECT_EQ(flow.receiver().delivered_units(), 10u);
  EXPECT_FALSE(flow.completed());  // app-limited flows are unbounded
}

TEST(AppLimited, IdleCallbackDrivesNextBurst) {
  Fixture f;
  FlowConfig fc;
  fc.id = 1;
  fc.cca = cca::CcaKind::kCubic;
  fc.app_limited = true;
  fc.seed = 1;
  Flow flow(f.sched, f.net.client(0), f.net.server(0), fc);
  struct Source {
    sim::Scheduler* sched;
    Flow* flow;
    int idles = 0;
  } src{&f.sched, &flow, 0};
  flow.sender().set_on_app_idle(
      [](void* ctx) {
        auto* s = static_cast<Source*>(ctx);
        ++s->idles;
        // Think for 500 ms, then offer the next burst (three bursts total).
        if (s->idles < 3) {
          s->sched->schedule_in(sim::Time::milliseconds(500),
                                [s] { s->flow->sender().offer_units(5); });
        }
      },
      &src);
  flow.start();
  flow.sender().offer_units(5);
  f.sched.run_until(sim::Time::seconds(20));
  EXPECT_EQ(src.idles, 3);
  EXPECT_EQ(flow.receiver().delivered_units(), 15u);
}

TEST(AppLimited, OfferBeforeStartIsHeldUntilStartTime) {
  Fixture f;
  FlowConfig fc;
  fc.id = 1;
  fc.cca = cca::CcaKind::kCubic;
  fc.app_limited = true;
  fc.start_time = sim::Time::seconds(2);
  fc.seed = 1;
  Flow flow(f.sched, f.net.client(0), f.net.server(0), fc);
  flow.start();
  flow.sender().offer_units(4);
  f.sched.run_until(sim::Time::seconds(1));
  EXPECT_EQ(flow.receiver().delivered_units(), 0u);
  f.sched.run_until(sim::Time::seconds(5));
  EXPECT_EQ(flow.receiver().delivered_units(), 4u);
}

TEST(FiniteTransfer, FctWorsensBehindBufferbloat) {
  // A mouse behind a CUBIC elephant in a deep FIFO waits out the standing
  // queue; the same mouse alone is far faster.
  Fixture alone;
  Flow solo = alone.flow(1, 890'000);
  solo.start();
  alone.sched.run_until(sim::Time::seconds(10));
  ASSERT_TRUE(solo.completed());

  Fixture busy;
  Flow elephant = busy.flow(1, 0);
  Flow mouse = busy.flow(2, 890'000, sim::Time::seconds(5));
  elephant.start();
  mouse.start();
  busy.sched.run_until(sim::Time::seconds(40));
  ASSERT_TRUE(mouse.completed());
  EXPECT_GT(mouse.completion_time(), solo.completion_time());
}

}  // namespace
}  // namespace elephant::tcp
