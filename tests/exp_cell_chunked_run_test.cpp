// Chunked runs: a cell stopped mid-flight — at a deadline, or after an
// executed-event budget that lands mid-instant — and then resumed must
// produce results bit-identical to the uninterrupted run. The model
// checker's probe windows stop and resume cells exactly this way.
// Exercised across the three paper AQMs, all five CCAs, a fault-injected
// cell, an arrival-loss cell, and a finite-workload cell (whose completed
// flows walk the scoreboard teardown/slab-release path mid-run). The state
// hash the explorer dedups on must also ignore observers.

#include <gtest/gtest.h>

#include <cstdint>

#include "exp/cell.hpp"
#include "exp/config.hpp"
#include "exp/result_digest.hpp"
#include "fault/fault.hpp"
#include "trace/sinks.hpp"
#include "trace/trace.hpp"
#include "workload/workload.hpp"

namespace elephant {
namespace {

// Small, fast cells: 2 elephants over a 20 Mbps bottleneck for one second.
exp::ExperimentConfig tiny_cell() {
  exp::ExperimentConfig cfg;
  cfg.cca1 = cca::CcaKind::kCubic;
  cfg.cca2 = cca::CcaKind::kBbrV1;
  cfg.aqm = aqm::AqmKind::kFifo;
  cfg.buffer_bdp = 1.0;
  cfg.bottleneck_bps = 20e6;
  cfg.total_flows = 2;
  cfg.duration = sim::Time::seconds(1);
  cfg.seed = 20260809;
  return cfg;
}

std::uint64_t digest_uninterrupted(const exp::ExperimentConfig& cfg) {
  exp::Cell cell(cfg);
  return exp::metrics_digest(cell.run_to_completion());
}

/// Stop at 0.4 s (or, with `by_events`, after 20000 executed events — the
/// mid-instant stop of an event budget), then resume to the end.
std::uint64_t digest_chunked(const exp::ExperimentConfig& cfg, bool by_events) {
  exp::Cell cell(cfg);
  if (by_events) {
    cell.run_chunk(/*max_events=*/20000);
  } else {
    cell.run_chunk(/*max_events=*/0, sim::Time::seconds(0.4));
  }
  cell.run_chunk(/*max_events=*/0, cell.duration());
  return exp::metrics_digest(cell.finalize());
}

TEST(ChunkedRun, AllPaperAqms) {
  for (const aqm::AqmKind kind : exp::paper_aqms()) {
    exp::ExperimentConfig cfg = tiny_cell();
    cfg.aqm = kind;
    const std::uint64_t want = digest_uninterrupted(cfg);
    EXPECT_EQ(digest_chunked(cfg, /*by_events=*/false), want)
        << "aqm " << aqm::to_string(kind) << " (deadline stop)";
    EXPECT_EQ(digest_chunked(cfg, /*by_events=*/true), want)
        << "aqm " << aqm::to_string(kind) << " (event-budget stop)";
  }
}

TEST(ChunkedRun, AllCcas) {
  for (const cca::CcaKind kind :
       {cca::CcaKind::kReno, cca::CcaKind::kCubic, cca::CcaKind::kHtcp,
        cca::CcaKind::kBbrV1, cca::CcaKind::kBbrV2}) {
    exp::ExperimentConfig cfg = tiny_cell();
    cfg.cca1 = kind;  // vs the default CUBIC on side 2
    cfg.cca2 = cca::CcaKind::kCubic;
    const std::uint64_t want = digest_uninterrupted(cfg);
    EXPECT_EQ(digest_chunked(cfg, /*by_events=*/false), want)
        << "cca " << cca::to_string(kind) << " (deadline stop)";
    EXPECT_EQ(digest_chunked(cfg, /*by_events=*/true), want)
        << "cca " << cca::to_string(kind) << " (event-budget stop)";
  }
}

TEST(ChunkedRun, FaultInjectedCell) {
  exp::ExperimentConfig cfg = tiny_cell();
  cfg.fault_plan = fault::FaultPlan::link_flap(sim::Time::seconds(0.3),
                                               sim::Time::milliseconds(60), 2);
  for (const fault::FaultEvent& e :
       fault::FaultPlan::loss_burst(sim::Time::seconds(0.5), 0.03, sim::Time::seconds(0.3))
           .events) {
    cfg.fault_plan.add(e);
  }
  const std::uint64_t want = digest_uninterrupted(cfg);
  // The 0.4 s deadline stop lands between the flap and the loss burst; the
  // resumed run must play the remaining fault timeline identically.
  EXPECT_EQ(digest_chunked(cfg, /*by_events=*/false), want);
  EXPECT_EQ(digest_chunked(cfg, /*by_events=*/true), want);
}

// Bernoulli and Gilbert–Elliott arrival loss: the port's loss stage (both
// RNG streams, the chain state, its counters) carries across the stop.
TEST(ChunkedRun, ArrivalLossCell) {
  exp::ExperimentConfig cfg = tiny_cell();
  cfg.random_loss = 0.01;
  cfg.ge_loss = fault::GilbertElliottParams::from_loss(0.005, 10);
  const std::uint64_t want = digest_uninterrupted(cfg);
  EXPECT_EQ(digest_chunked(cfg, /*by_events=*/false), want);
  EXPECT_EQ(digest_chunked(cfg, /*by_events=*/true), want);
}

TEST(ChunkedRun, FiniteWorkloadCell) {
  exp::ExperimentConfig cfg = tiny_cell();
  ASSERT_TRUE(workload::WorkloadSpec::from_name("mice-elephants", &cfg.workload));
  const std::uint64_t want = digest_uninterrupted(cfg);
  EXPECT_EQ(digest_chunked(cfg, /*by_events=*/false), want);
  EXPECT_EQ(digest_chunked(cfg, /*by_events=*/true), want);
}

// A tracer is an observer: it must leave the hashed state (scheduler slots
// and every serialized component) exactly as an untraced cell has it, at
// deadline and mid-instant event-budget boundaries alike.
TEST(SnapshotRoundtrip, TracedCellHashesLikeUntraced) {
  exp::ExperimentConfig cfg = tiny_cell();
  cfg.fault_plan = fault::FaultPlan::loss_burst(sim::Time::seconds(0.3), 0.05,
                                                sim::Time::seconds(0.3));
  trace::DigestSink sink;
  trace::Tracer tracer(sink, /*capacity=*/4096);
  exp::ExperimentConfig traced_cfg = cfg;
  traced_cfg.tracer = &tracer;
  exp::Cell plain(cfg);
  exp::Cell traced(traced_cfg);
  EXPECT_EQ(traced.state_hash(), plain.state_hash()) << "after construction";
  for (int step = 1; step <= 4; ++step) {
    plain.run_chunk(/*max_events=*/7000);
    traced.run_chunk(/*max_events=*/7000);
    EXPECT_EQ(traced.state_hash(), plain.state_hash()) << "event chunk " << step;
    const sim::Time deadline = sim::Time::seconds(0.2 * step);
    plain.run_chunk(/*max_events=*/0, deadline);
    traced.run_chunk(/*max_events=*/0, deadline);
    EXPECT_EQ(traced.state_hash(), plain.state_hash()) << "deadline " << deadline.sec();
  }
  tracer.flush();
  EXPECT_GT(sink.count(), 0u) << "the tracer recorded nothing";
}

}  // namespace
}  // namespace elephant
