// Finite transfers, run the way the cells run them: a WorkloadSpec class
// instantiated by exp::FlowFactory inside exp::Cell.

#include <gtest/gtest.h>

#include <vector>

#include "exp/cell.hpp"
#include "test_util.hpp"
#include "trace/sinks.hpp"

namespace elephant::exp {
namespace {

using workload::ClassKind;

constexpr double kUnit = 8900;  ///< one unit at 100M (aggregation 1)

/// One CUBIC flow of `kind` on side 0, starting exactly at `start_s`.
workload::TrafficClass one_flow(ClassKind kind, double bytes, double start_s = 0) {
  return test::one_flow(kind, cca::CcaKind::kCubic, bytes, start_s);
}

/// FCT of the cell's last flow, a mouse, run to the cell's duration.
double mouse_fct_s(const ExperimentConfig& cfg) {
  Cell cell(cfg);
  const ExperimentResult res = cell.run_to_completion();
  EXPECT_TRUE(res.flows.back().completed);
  return res.flows.back().fct_s;
}

TEST(FiniteTransfer, CompletesAndRecordsFct) {
  Cell cell(test::class_cell({one_flow(ClassKind::kFinite, 100 * kUnit)}, 5));
  const ExperimentResult res = cell.run_to_completion();
  ASSERT_TRUE(res.flows[0].completed);
  // ≥1 RTT; well under a second at 100 Mb/s.
  EXPECT_GT(res.flows[0].fct_s, 0.062);
  EXPECT_LT(res.flows[0].fct_s, 1.0);
}

TEST(FiniteTransfer, DeliversExactlyTheObject) {
  Cell cell(test::class_cell({one_flow(ClassKind::kFinite, 890'000)}, 5));
  cell.run_chunk(0);
  EXPECT_EQ(cell.flows().flow(0).receiver->delivered_units(), 100u);
  EXPECT_EQ(cell.flows().flow(0).receiver->delivered_bytes(), 890'000u);
}

TEST(FiniteTransfer, SizeRoundsUpToUnits) {
  Cell cell(test::class_cell({one_flow(ClassKind::kFinite, 10'000)}, 2));  // 2 units of 8900
  cell.run_chunk(0);
  EXPECT_TRUE(cell.flows().flow(0).sender->completed());
  EXPECT_EQ(cell.flows().flow(0).receiver->delivered_units(), 2u);
}

TEST(FiniteTransfer, FctMeasuredFromConfiguredStart) {
  const double fct =
      mouse_fct_s(test::class_cell({one_flow(ClassKind::kFinite, 890'000, 3)}, 10));
  EXPECT_GT(fct, 0.062);
  EXPECT_LT(fct, 2.0);
}

TEST(FiniteTransfer, UnboundedFlowNeverCompletes) {
  Cell cell(test::class_cell({one_flow(ClassKind::kElephant, 0)}, 3));
  const ExperimentResult res = cell.run_to_completion();
  EXPECT_FALSE(res.flows[0].completed);
  EXPECT_EQ(cell.flows().flow(0).sender->completion_time(), sim::Time::zero());
}

TEST(FiniteTransfer, CompletesDespiteLosses) {
  // Elephant floods the queue; the mouse still completes (retransmissions).
  Cell cell(test::class_cell(
      {one_flow(ClassKind::kElephant, 0), one_flow(ClassKind::kFinite, 890'000, 2)}, 30));
  const ExperimentResult res = cell.run_to_completion();
  EXPECT_GT(res.retx_segments, 0u);
  EXPECT_TRUE(res.flows[1].completed);
}

TEST(FiniteTransfer, CompletionCallbackFiresOnceAndReleasesTimers) {
  trace::MemorySink sink;
  trace::Tracer tracer(sink, 1 << 10);
  tracer.enable_only({trace::RecordType::kFlowEnd});
  ExperimentConfig cfg = test::class_cell({one_flow(ClassKind::kFinite, 890'000)}, 60);
  cfg.tracer = &tracer;
  Cell cell(cfg);
  const tcp::TcpSender& tx = *cell.flows().flow(0).sender;
  const sim::Time step = sim::Time::milliseconds(10);
  for (sim::Time t = step; !tx.completed() && t < cell.duration(); t += step) {
    cell.run_chunk(0, t);
  }
  ASSERT_TRUE(tx.completed());
  // A dangling RTO timer (>= 200 ms min RTO) would still be pending 100 ms
  // after completion; the delayed-ACK timer accounts for at most 40 ms.
  cell.run_chunk(0, tx.completion_time() + sim::Time::milliseconds(100));
  EXPECT_EQ(cell.scheduler().pending_events(), 0u);
  EXPECT_EQ(cell.run_chunk(0), sim::Scheduler::StopReason::kQueueExhausted);
  tracer.flush();
  // The factory's completion callback emits exactly one kFlowEnd.
  ASSERT_EQ(sink.records().size(), 1u);
  EXPECT_EQ(sink.records()[0].t, tx.completion_time());
}

TEST(FiniteTransfer, FctWorsensBehindBufferbloat) {
  // A mouse behind a CUBIC elephant in a deep FIFO waits out the standing
  // queue; the same mouse alone is far faster.
  const double alone =
      mouse_fct_s(test::class_cell({one_flow(ClassKind::kFinite, 890'000)}, 10));
  const double busy = mouse_fct_s(test::class_cell(
      {one_flow(ClassKind::kElephant, 0), one_flow(ClassKind::kFinite, 890'000, 5)}, 40));
  EXPECT_GT(busy, alone);
}

}  // namespace
}  // namespace elephant::exp
