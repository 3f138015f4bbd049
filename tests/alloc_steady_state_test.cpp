// Proves the event engine's zero-allocation steady state: after warm-up
// (slot/heap/ring growth to the high-water mark), a loss-free paper-style
// cell must run without a single call to the global allocator. A regression
// here means some per-packet path regrew a std::function, deque block, or
// heap node.
//
// The counting hook (alloc_hook.cpp) replaces global operator new/delete
// for the whole test binary; every other test runs on it too, which is
// harmless.
//
// The measured scenario is a single BBRv1 flow into a deep bottleneck buffer
// under each of the paper's three AQMs (FIFO, RED, FQ-CoDel): bounded cwnd,
// no loss, no reordering — so the known allocating paths that are
// deliberately out of scope (the receiver's out-of-order interval map,
// fault-injection captures) stay cold. RED and FQ-CoDel run with ECN so
// their early signals are CE marks, not drops. Loss-path allocations are
// bounded by episode count, not packet count, and are documented in
// DESIGN.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "alloc_hook.hpp"
#include "aqm/factory.hpp"
#include "cca/congestion_control.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace elephant {
namespace {

class AllocSteadyState : public ::testing::TestWithParam<aqm::AqmKind> {};

TEST_P(AllocSteadyState, NoAllocationsAfterWarmup) {
  sim::Scheduler sched;

  net::DumbbellConfig topo;
  topo.bottleneck_bps = 100e6;
  topo.aqm = GetParam();
  topo.ecn = GetParam() != aqm::AqmKind::kFifo;
  topo.bottleneck_buffer_bytes = std::size_t{16} << 20;  // deep: no loss
  net::Dumbbell net(sched, topo);

  cca::CcaParams cp;
  cp.mss_bytes = 8900;
  cp.seed = 7;
  tcp::TcpSenderConfig sc;
  sc.flow = 1;
  sc.src = net.client(0).id();
  sc.dst = net.server(0).id();
  sc.mss = 8900;
  sc.ecn = topo.ecn;

  tcp::TcpReceiver receiver(sched, net.server(0), net.client(0).id(), 1);
  tcp::TcpSender sender(sched, net.client(0), sc,
                        cca::make_cca(cca::CcaKind::kBbrV1, cp));
  net.client(0).register_endpoint(1, &sender);
  net.server(0).register_endpoint(1, &receiver);
  sender.start();

  // Warm-up: slow start, BBR STARTUP overshoot, one full ProbeBW gain
  // cycle — every container reaches its high-water mark.
  sched.run_until(sim::Time::seconds(2));
  ASSERT_GT(receiver.delivered_units(), 0u) << "warm-up produced no traffic";

  const std::uint64_t before = test::alloc_calls();
  sched.run_until(sim::Time::seconds(6));
  const std::uint64_t after = test::alloc_calls();

  EXPECT_EQ(after - before, 0u)
      << "steady state touched the allocator " << (after - before) << " times";
  EXPECT_EQ(sender.stats().rtos, 0u) << "scenario invalid: RTO fired";
  EXPECT_EQ(sender.stats().retx_units, 0u) << "scenario invalid: loss occurred";
}

INSTANTIATE_TEST_SUITE_P(PaperAqms, AllocSteadyState,
                         ::testing::Values(aqm::AqmKind::kFifo, aqm::AqmKind::kRed,
                                           aqm::AqmKind::kFqCodel),
                         [](const auto& info) { return aqm::to_string(info.param); });

// The telemetry layer's steady-state contract: registration may allocate
// (find-or-create inserts a map node), but every subsequent counter bump,
// gauge store, histogram record, and scoped-timer sample is allocation-free —
// that is what makes it safe to leave instrumentation wired into per-packet
// paths.
TEST(AllocSteadyState, MetricsUpdatesAreAllocationFree) {
  obs::MetricsRegistry reg;
  obs::Counter& counter = reg.counter("sim.events");
  obs::Gauge& gauge = reg.gauge("tcp.cwnd_segments");
  obs::LogLinHistogram& hist = reg.histogram("queue.sojourn_s");
  hist.record(1e-3);  // histograms are fixed arrays; no lazy growth to prime

  const std::uint64_t before = test::alloc_calls();
  for (int i = 0; i < 100000; ++i) {
    counter.add();
    gauge.set(static_cast<double>(i));
    hist.record(1e-6 * static_cast<double>(i + 1));
    obs::ScopedTimer timer(&hist);
  }
  (void)hist.quantile(0.99);  // reads are allocation-free too
  const std::uint64_t after = test::alloc_calls();

  EXPECT_EQ(after - before, 0u)
      << "metrics steady state touched the allocator " << (after - before) << " times";
  EXPECT_EQ(counter.value(), 100000u);
  EXPECT_EQ(hist.count(), 200001u);
}

// Same proof end-to-end: the instrumented single-flow scenario above must
// stay allocation-free with live scheduler/queue/TCP metric handles attached,
// not just with the registry exercised in isolation.
TEST(AllocSteadyState, InstrumentedRunStaysAllocationFree) {
  obs::MetricsRegistry reg;
  obs::SchedulerMetrics sched_metrics;
  sched_metrics.events_executed = &reg.gauge("sim.events_executed");
  sched_metrics.heap_depth = &reg.gauge("sim.heap_depth");
  sched_metrics.heap_peak = &reg.gauge("sim.heap_peak");
  obs::QueueMetrics queue_metrics;
  queue_metrics.sojourn_s = &reg.histogram("queue.sojourn_s");
  obs::TcpMetrics tcp_metrics;
  tcp_metrics.cwnd_segments = &reg.gauge("tcp.cwnd_segments");
  tcp_metrics.srtt_s = &reg.histogram("tcp.srtt_s");

  sim::Scheduler sched;
  sched.set_metrics(&sched_metrics);

  net::DumbbellConfig topo;
  topo.bottleneck_bps = 100e6;
  topo.aqm = aqm::AqmKind::kFifo;
  topo.bottleneck_buffer_bytes = std::size_t{16} << 20;
  net::Dumbbell net(sched, topo);
  net.bottleneck().set_metrics(&queue_metrics);

  cca::CcaParams cp;
  cp.mss_bytes = 8900;
  cp.seed = 7;
  tcp::TcpSenderConfig sc;
  sc.flow = 1;
  sc.src = net.client(0).id();
  sc.dst = net.server(0).id();
  sc.mss = 8900;

  tcp::TcpReceiver receiver(sched, net.server(0), net.client(0).id(), 1);
  tcp::TcpSender sender(sched, net.client(0), sc,
                        cca::make_cca(cca::CcaKind::kBbrV1, cp));
  sender.set_metrics(&tcp_metrics);
  net.client(0).register_endpoint(1, &sender);
  net.server(0).register_endpoint(1, &receiver);
  sender.start();

  sched.run_until(sim::Time::seconds(2));
  ASSERT_GT(receiver.delivered_units(), 0u) << "warm-up produced no traffic";

  const std::uint64_t before = test::alloc_calls();
  sched.run_until(sim::Time::seconds(6));
  const std::uint64_t after = test::alloc_calls();

  EXPECT_EQ(after - before, 0u)
      << "instrumented steady state touched the allocator " << (after - before)
      << " times";
  // And the instrumentation actually observed the run.
  EXPECT_GT(reg.gauge("sim.events_executed").value(), 0.0);
  EXPECT_GT(reg.histogram("queue.sojourn_s").count(), 0u);
  EXPECT_GT(reg.histogram("tcp.srtt_s").count(), 0u);
  EXPECT_GT(reg.gauge("tcp.cwnd_segments").value(), 0.0);
}

}  // namespace
}  // namespace elephant
