#include "metrics/flow_monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "net/topology.hpp"

namespace elephant::metrics {
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
  /// Run to `seconds`, sampling `mon` at every whole second in between.
  void run_sampled(FlowMonitor& mon, double seconds) {
    const sim::Time end = sim::Time::seconds(seconds);
    for (sim::Time t = sim::Time::seconds(1); t <= end; t += sim::Time::seconds(1)) {
      sched.run_until(t);
      mon.sample(t);
    }
    sched.run_until(end);
  }
  tcp::Flow flow(net::FlowId id, cca::CcaKind kind) {
    tcp::FlowConfig fc;
    fc.id = id;
    fc.cca = kind;
    fc.seed = id;
    return tcp::Flow(sched, net.client(0), net.server(0), fc);
  }
};

TEST(FlowMonitor, SamplesAtConfiguredInterval) {
  Fixture f;
  tcp::Flow flow = f.flow(1, cca::CcaKind::kCubic);
  FlowMonitor mon;
  mon.watch(flow);
  flow.start();
  f.run_sampled(mon, 10.5);
  ASSERT_EQ(mon.series().size(), 1u);
  EXPECT_EQ(mon.series()[0].samples.size(), 10u);
}

TEST(FlowMonitor, SamplesCarryLiveTransportState) {
  Fixture f;
  tcp::Flow flow = f.flow(1, cca::CcaKind::kCubic);
  FlowMonitor mon;
  mon.watch(flow);
  flow.start();
  f.run_sampled(mon, 5.5);
  const auto& samples = mon.series()[0].samples;
  ASSERT_GE(samples.size(), 5u);
  EXPECT_GT(samples.back().cwnd_segments, 0.0);
  EXPECT_GT(samples.back().srtt_ms, 60.0);
  EXPECT_GT(samples.back().goodput_bps, 1e6);
}

TEST(FlowMonitor, GoodputIsPerInterval) {
  Fixture f;
  tcp::Flow flow = f.flow(1, cca::CcaKind::kCubic);
  FlowMonitor mon;
  mon.watch(flow);
  flow.start();
  f.run_sampled(mon, 20.5);
  const auto& samples = mon.series()[0].samples;
  // Steady state: per-interval goodput approaches the bottleneck rate, and
  // must never wildly exceed it (it is a delta, not a cumulative count).
  for (std::size_t i = 5; i < samples.size(); ++i) {
    EXPECT_LT(samples[i].goodput_bps, 110e6);
  }
  EXPECT_GT(samples.back().goodput_bps, 60e6);
}

TEST(FlowMonitor, DefaultLabelEncodesCcaAndId) {
  Fixture f;
  tcp::Flow flow = f.flow(3, cca::CcaKind::kBbrV1);
  FlowMonitor mon;
  mon.watch(flow);
  EXPECT_EQ(mon.series()[0].label, "bbr1-3");
}

TEST(FlowMonitor, CsvHasHeaderAndRows) {
  Fixture f;
  tcp::Flow flow = f.flow(1, cca::CcaKind::kReno);
  FlowMonitor mon;
  mon.watch(flow, "myflow");
  flow.start();
  f.run_sampled(mon, 3.5);
  std::ostringstream out;
  mon.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("label,flow,t_s,cwnd_segments"), std::string::npos);
  EXPECT_NE(csv.find("myflow,1,1,"), std::string::npos);
  // header + 3 samples
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(FlowMonitor, WatchesMultipleFlows) {
  Fixture f;
  tcp::Flow a = f.flow(1, cca::CcaKind::kCubic);
  tcp::Flow b = f.flow(2, cca::CcaKind::kBbrV2);
  FlowMonitor mon;
  mon.watch(a);
  mon.watch(b);
  a.start();
  b.start();
  f.run_sampled(mon, 5.5);
  ASSERT_EQ(mon.series().size(), 2u);
  EXPECT_EQ(mon.series()[0].samples.size(), mon.series()[1].samples.size());
}

}  // namespace
}  // namespace elephant::metrics
