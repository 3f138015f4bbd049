#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "test_util.hpp"
#include "trace/codec.hpp"
#include "trace/sinks.hpp"
#include "trace/trace.hpp"
#include "workload/workload.hpp"

namespace elephant::exp {
namespace {

using cca::CcaKind;

ExperimentConfig traced_config(trace::Tracer* tracer) {
  auto cfg = test::quick_config(CcaKind::kCubic, CcaKind::kCubic, aqm::AqmKind::kFifo, 2.0,
                                100e6, 5);
  cfg.total_flows = 4;
  cfg.tracer = tracer;
  return cfg;
}

TEST(TraceIntegration, TracedRunEmitsPerFlowCwndAndQueueDepthSeries) {
  trace::MemorySink sink;
  trace::Tracer tracer(sink, 1 << 12);
  const auto cfg = traced_config(&tracer);
  const auto res = test::run_uncached(cfg);
  ASSERT_EQ(res.n_flows, 4u);

  // run_experiment() flushes the tracer, so the sink already holds the run.
  const auto& records = sink.records();
  ASSERT_FALSE(records.empty());

  std::set<std::uint32_t> cwnd_flows;
  std::size_t queue_samples = 0;
  sim::Time last_queue_t = sim::Time::zero();
  for (const auto& r : records) {
    if (r.type == trace::RecordType::kCwndUpdate) cwnd_flows.insert(r.flow);
    if (r.type == trace::RecordType::kQueueDepth) {
      ++queue_samples;
      EXPECT_GE(r.t, last_queue_t);  // the periodic series is time-ordered
      last_queue_t = r.t;
      EXPECT_GE(r.v0, 0.0);                // backlog bytes
      EXPECT_GE(r.v2, 0.0);                // cumulative tx bytes
    }
  }
  // Every flow produced a cwnd time series.
  std::set<std::uint32_t> expected_flows;
  for (const auto& f : res.flows) expected_flows.insert(f.flow);
  EXPECT_EQ(cwnd_flows, expected_flows);
  // 5 s at the fixed 100 ms interval: one sample per interval, the first
  // one interval in.
  EXPECT_GE(queue_samples, 45u);
  EXPECT_LE(queue_samples, 50u);
  // Something traversed the bottleneck while we watched.
  EXPECT_GT(std::count_if(records.begin(), records.end(),
                          [](const trace::TraceRecord& r) {
                            return r.type == trace::RecordType::kAqmEnqueue;
                          }),
            0);
}

// Queue-depth samples are taken on run-loop boundaries, not by a timer, so
// they must keep coming after every flow has finished and the event queue
// has drained — up to and including the duration — with episode sampling
// (which stops at the first window after the drain) attached as well.
TEST(TraceIntegration, QueueDepthSamplesContinueAfterTheQueueDrains) {
  trace::MemorySink sink;
  trace::Tracer tracer(sink, 1 << 12);
  auto cfg = traced_config(&tracer);
  cfg.duration = sim::Time::seconds(2);
  cfg.episodes.enabled = true;
  cfg.episodes.window_s = 0.25;
  workload::TrafficClass mice;
  mice.name = "mice";
  mice.kind = workload::ClassKind::kFinite;
  mice.count = 4;
  mice.start_window = sim::Time::seconds(0.1);
  mice.size = workload::SizeSpec::fixed(50e3);
  cfg.workload.classes = {mice};
  const auto res = test::run_uncached(cfg);
  for (const auto& f : res.flows) ASSERT_TRUE(f.completed) << "flow " << f.flow;

  std::vector<sim::Time> ticks;
  for (const auto& r : sink.records()) {
    if (r.type == trace::RecordType::kQueueDepth) ticks.push_back(r.t);
  }
  ASSERT_EQ(ticks.size(), 20u);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i], sim::Time::milliseconds(100) * static_cast<std::int64_t>(i + 1));
  }
}

TEST(TraceIntegration, CsvAndJsonlRoundTripTheWholeRun) {
  // The same config traced twice, once into memory and once as CSV text.
  // Only the series the acceptance criteria care about, to keep text small;
  // the small ring forces mid-run drains.
  auto trace_run = [](trace::TraceSink& sink) {
    trace::Tracer tracer(sink, 1 << 10);
    tracer.enable_only({trace::RecordType::kCwndUpdate, trace::RecordType::kQueueDepth});
    (void)test::run_uncached(traced_config(&tracer));
  };
  trace::MemorySink memory;
  trace_run(memory);
  std::ostringstream csv_text;
  {
    trace::CsvSink csv(csv_text);
    trace_run(csv);
  }

  const auto& truth = memory.records();
  ASSERT_FALSE(truth.empty());

  // Header then one row per record, each parsing back bit-exact.
  std::istringstream in(csv_text.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, trace::csv_header());
  std::size_t i = 0;
  while (std::getline(in, line)) {
    trace::TraceRecord r;
    ASSERT_TRUE(trace::parse_csv(line, &r)) << line;
    ASSERT_LT(i, truth.size());
    EXPECT_EQ(r, truth[i]) << "csv row " << i;
    ++i;
  }
  EXPECT_EQ(i, truth.size());
}

TEST(TraceIntegration, TracingIsObservational) {
  // Attaching a tracer must not change the experiment's outcome.
  trace::DigestSink sink;
  trace::Tracer tracer(sink, 1 << 10);
  const auto traced_cfg = traced_config(&tracer);
  auto plain_cfg = traced_cfg;
  plain_cfg.tracer = nullptr;
  const auto traced = test::run_uncached(traced_cfg);
  const auto plain = test::run_uncached(plain_cfg);
  ASSERT_EQ(traced.flows.size(), plain.flows.size());
  for (std::size_t i = 0; i < traced.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(traced.flows[i].throughput_bps, plain.flows[i].throughput_bps);
  }
  EXPECT_DOUBLE_EQ(traced.jain2, plain.jain2);
  EXPECT_GT(tracer.recorded(), 0u);
}

TEST(TraceIntegration, RunAveragedAlwaysRecordsWhenTracing) {
  // run_averaged always simulates (results are reused only by resuming a
  // sweep journal), so a tracer attached to it always records.
  trace::DigestSink sink;
  trace::Tracer tracer(sink, 1 << 10);
  auto cfg = traced_config(&tracer);
  const auto avg = run_averaged(cfg, 1);
  EXPECT_EQ(avg.repetitions, 1);
  EXPECT_GT(tracer.recorded(), 0u);
}

}  // namespace
}  // namespace elephant::exp
