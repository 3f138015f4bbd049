// Snapshot/restore round trips: interrupting a run mid-flight — snapshot,
// deliberately run the live cell further to scramble its state, restore,
// resume — must produce results bit-identical to the uninterrupted run.
// Exercised across the three paper AQMs, all five CCAs, a fault-injected
// cell, an arrival-loss cell, and a finite-workload cell (whose completed flows walk the
// scoreboard teardown/slab-release path across the snapshot boundary).

#include <gtest/gtest.h>

#include <cstdint>

#include "exp/cell.hpp"
#include "exp/config.hpp"
#include "exp/result_digest.hpp"
#include "fault/fault.hpp"
#include "sim/snapshot.hpp"
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

/// Run to `snap_at`, snapshot, keep running the live cell (scrambling its
/// state past the snapshot point), restore, resume to the end. With
/// `by_events` the interruption lands on an executed-event boundary instead
/// of a deadline boundary — the mid-instant case a model checker's stepping
/// produces.
std::uint64_t digest_roundtrip(const exp::ExperimentConfig& cfg, bool by_events) {
  exp::Cell cell(cfg);
  if (by_events) {
    cell.run_chunk(/*max_events=*/20000);
  } else {
    cell.run_chunk(/*max_events=*/0, sim::Time::seconds(0.4));
  }
  const sim::Snapshot snap = cell.snapshot();
  const std::uint64_t hash_at_snap = cell.state_hash();

  // Scramble: advance the live cell well past the snapshot point.
  cell.run_chunk(/*max_events=*/30000);

  cell.restore(snap);
  EXPECT_EQ(cell.state_hash(), hash_at_snap) << "restore did not recreate the state";

  cell.run_chunk(/*max_events=*/0, cell.duration());
  return exp::metrics_digest(cell.finalize());
}

TEST(SnapshotRoundtrip, AllPaperAqms) {
  for (const aqm::AqmKind kind : exp::paper_aqms()) {
    exp::ExperimentConfig cfg = tiny_cell();
    cfg.aqm = kind;
    const std::uint64_t want = digest_uninterrupted(cfg);
    EXPECT_EQ(digest_roundtrip(cfg, /*by_events=*/false), want)
        << "aqm " << aqm::to_string(kind) << " (deadline interrupt)";
    EXPECT_EQ(digest_roundtrip(cfg, /*by_events=*/true), want)
        << "aqm " << aqm::to_string(kind) << " (event-budget interrupt)";
  }
}

TEST(SnapshotRoundtrip, AllCcas) {
  for (const cca::CcaKind kind :
       {cca::CcaKind::kReno, cca::CcaKind::kCubic, cca::CcaKind::kHtcp,
        cca::CcaKind::kBbrV1, cca::CcaKind::kBbrV2}) {
    exp::ExperimentConfig cfg = tiny_cell();
    cfg.cca1 = kind;  // vs the default CUBIC on side 2
    cfg.cca2 = cca::CcaKind::kCubic;
    const std::uint64_t want = digest_uninterrupted(cfg);
    EXPECT_EQ(digest_roundtrip(cfg, /*by_events=*/false), want)
        << "cca " << cca::to_string(kind) << " (deadline interrupt)";
    EXPECT_EQ(digest_roundtrip(cfg, /*by_events=*/true), want)
        << "cca " << cca::to_string(kind) << " (event-budget interrupt)";
  }
}

TEST(SnapshotRoundtrip, FaultInjectedCell) {
  exp::ExperimentConfig cfg = tiny_cell();
  cfg.fault_plan = fault::FaultPlan::link_flap(sim::Time::seconds(0.3),
                                               sim::Time::milliseconds(60), 2);
  for (const fault::FaultEvent& e :
       fault::FaultPlan::loss_burst(sim::Time::seconds(0.5), 0.03, sim::Time::seconds(0.3))
           .events) {
    cfg.fault_plan.add(e);
  }
  const std::uint64_t want = digest_uninterrupted(cfg);
  // The 0.4 s deadline interrupt lands between the flap and the loss burst;
  // the restored run must replay the remaining fault timeline identically.
  EXPECT_EQ(digest_roundtrip(cfg, /*by_events=*/false), want);
  EXPECT_EQ(digest_roundtrip(cfg, /*by_events=*/true), want);
}

// Bernoulli and Gilbert–Elliott arrival loss: the port's loss stage (both
// RNG streams, the chain state, its counters) must survive the round trip.
TEST(SnapshotRoundtrip, ArrivalLossCell) {
  exp::ExperimentConfig cfg = tiny_cell();
  cfg.random_loss = 0.01;
  cfg.ge_loss = fault::GilbertElliottParams::from_loss(0.005, 10);
  const std::uint64_t want = digest_uninterrupted(cfg);
  EXPECT_EQ(digest_roundtrip(cfg, /*by_events=*/false), want);
  EXPECT_EQ(digest_roundtrip(cfg, /*by_events=*/true), want);
}

TEST(SnapshotRoundtrip, FiniteWorkloadCell) {
  exp::ExperimentConfig cfg = tiny_cell();
  ASSERT_TRUE(workload::WorkloadSpec::from_name("mice-elephants", &cfg.workload));
  const std::uint64_t want = digest_uninterrupted(cfg);
  EXPECT_EQ(digest_roundtrip(cfg, /*by_events=*/false), want);
  EXPECT_EQ(digest_roundtrip(cfg, /*by_events=*/true), want);
}

// One snapshot, many restores — the DFS backtracking pattern: every restore
// must land on the identical state and replay to the identical result.
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

TEST(SnapshotRoundtrip, SnapshotIsRestorableRepeatedly) {
  const exp::ExperimentConfig cfg = tiny_cell();
  exp::Cell cell(cfg);
  cell.run_chunk(/*max_events=*/15000);
  const sim::Snapshot snap = cell.snapshot();

  std::uint64_t first_digest = 0;
  std::uint64_t first_hash = 0;
  for (int round = 0; round < 3; ++round) {
    cell.restore(snap);
    const std::uint64_t hash = cell.state_hash();
    cell.run_chunk(/*max_events=*/0, cell.duration());
    const std::uint64_t digest = exp::metrics_digest(cell.finalize());
    if (round == 0) {
      first_hash = hash;
      first_digest = digest;
    } else {
      EXPECT_EQ(hash, first_hash) << "restore " << round;
      EXPECT_EQ(digest, first_digest) << "restore " << round;
    }
  }
  EXPECT_EQ(first_digest, digest_uninterrupted(cfg));
}

}  // namespace
}  // namespace elephant
