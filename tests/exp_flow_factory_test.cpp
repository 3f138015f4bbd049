// Flows built by exp::FlowFactory. Paper-default construction is pinned: per
// flow, its id, side, start time, CCA seed and parameters, the sender's
// wiring and the FlowInstance bookkeeping fields, plus the metrics digest of
// the same cell run to a 0.5 s horizon. Any change to how the paper's
// elephants are drawn or wired moves these digests. The Flow cases check one
// spawned flow end to end through exp::Cell.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "exp/cell.hpp"
#include "exp/config.hpp"
#include "exp/result_digest.hpp"
#include "sim/snapshot.hpp"
#include "test_util.hpp"

namespace elephant::exp {
namespace {

std::uint64_t fold_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return sim::fnv1a_fold(h, bits);
}

/// Digest of every paper flow's construction-time state in slab order, then
/// of the cell's results at a 0.5 s horizon.
std::uint64_t paper_flow_digest(ExperimentConfig cfg) {
  cfg.duration = sim::Time::seconds(0.5);
  Cell cell(cfg);
  FlowFactory& flows = cell.flows();
  std::uint64_t h = sim::kFnvOffset;
  h = sim::fnv1a_fold(h, flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowInstance& f = flows.flow(i);
    const tcp::TcpSenderConfig& sc = f.sender->config();
    const cca::CcaParams& cp = f.sender->cc().params();
    h = sim::fnv1a_fold(h, sc.flow);
    h = sim::fnv1a_fold(h, sc.src);
    h = sim::fnv1a_fold(h, sc.dst);
    h = sim::fnv1a_fold(h, sc.mss);
    h = sim::fnv1a_fold(h, sc.agg);
    h = sim::fnv1a_fold(h, sc.transfer_units);
    // ECN and pacing keep the bit positions the golden was captured with.
    h = sim::fnv1a_fold(h, (sc.ecn ? 2u : 0u) | (sc.pace_always ? 4u : 0u));
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(sc.start_time.ns()));
    h = sim::fnv1a_fold(h, cp.seed);
    h = fold_double(h, cp.mss_bytes);
    h = fold_double(h, cp.initial_cwnd_segments);
    h = fold_double(h, cp.min_cwnd_segments);
    for (const char c : f.sender->cc().name()) {
      h = sim::fnv1a_fold(h, static_cast<unsigned char>(c));
    }
    h = sim::fnv1a_fold(h, f.cls >= 0 ? 1 : 0);
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(f.side));
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(f.cls)));
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(f.kind));
    h = sim::fnv1a_fold(h, f.transfer_bytes);
    h = sim::fnv1a_fold(h, static_cast<std::uint64_t>(f.start_time.ns()));
    h = sim::fnv1a_fold(h, f.owner == &flows ? 1 : 0);
  }
  return sim::fnv1a_fold(h, metrics_digest(cell.run_to_completion()));
}

TEST(FlowFactory, PaperFlowsMatchGolden) {
  // The 100M paper cell: one flow per side, aggregation 1.
  ExperimentConfig two;
  two.cca1 = cca::CcaKind::kBbrV1;
  two.cca2 = cca::CcaKind::kCubic;
  two.bottleneck_bps = 100e6;
  two.seed = 7;
  ASSERT_EQ(two.effective_flows(), 2u);

  // The 10G paper cell: 200 flows at default aggregation (8).
  ExperimentConfig many;
  many.cca1 = cca::CcaKind::kBbrV2;
  many.cca2 = cca::CcaKind::kHtcp;
  many.aqm = aqm::AqmKind::kFqCodel;
  many.bottleneck_bps = 10e9;
  many.seed = 11;
  ASSERT_EQ(many.effective_flows(), 200u);

  // An odd count: side 0 takes the extra flow. ECN and pacing ride along.
  ExperimentConfig odd;
  odd.cca1 = cca::CcaKind::kReno;
  odd.cca2 = cca::CcaKind::kCubic;
  odd.aqm = aqm::AqmKind::kRed;
  odd.bottleneck_bps = 500e6;
  odd.total_flows = 5;
  odd.ecn = true;
  odd.pace_all = true;
  odd.seed = 3;

  EXPECT_EQ(paper_flow_digest(two), 0xc384d86768644ba7ULL);
  EXPECT_EQ(paper_flow_digest(many), 0xeea0cd37936071f9ULL);
  EXPECT_EQ(paper_flow_digest(odd), 0x5639c934d0562fd5ULL);
}

using workload::ClassKind;

workload::TrafficClass elephant(cca::CcaKind kind, double start_s = 0) {
  return test::one_flow(ClassKind::kElephant, kind, 0, start_s);
}

TEST(Flow, TransfersDataEndToEnd) {
  Cell cell(test::class_cell({elephant(cca::CcaKind::kCubic)}, 10));
  const ExperimentResult res = cell.run_to_completion();
  EXPECT_GT(cell.flows().flow(0).receiver->delivered_units(), 1000u);
  EXPECT_GT(res.flows[0].throughput_bps, 50e6);
}

TEST(Flow, GoodputZeroBeforeStart) {
  // A flow that starts at the end of the run has an empty window: its rate
  // is 0, not NaN.
  Cell cell(test::class_cell({elephant(cca::CcaKind::kReno, 2)}, 2));
  cell.run_chunk(0, sim::Time::seconds(1));
  EXPECT_EQ(cell.flows().flow(0).receiver->delivered_bytes(), 0u);
  cell.run_chunk(0);
  const ExperimentResult res = cell.finalize();
  EXPECT_DOUBLE_EQ(res.flows[0].throughput_bps, 0.0);
}

TEST(Flow, StopHaltsNewData) {
  Cell cell(test::class_cell({elephant(cca::CcaKind::kCubic)}, 8));
  cell.run_chunk(0, sim::Time::seconds(2));
  cell.flows().flow(0).sender->stop();
  cell.run_chunk(0, sim::Time::seconds(4));
  const auto delivered_at_4 = cell.flows().flow(0).receiver->delivered_units();
  cell.run_chunk(0);
  // Everything in flight at stop() has long landed; no new data flows.
  EXPECT_EQ(cell.flows().flow(0).receiver->delivered_units(), delivered_at_4);
}

TEST(Flow, CcaSelectionIsHonored) {
  // Paper flows take their side's CCA; a class may name its own.
  ExperimentConfig paper = test::class_cell({}, 1);
  paper.cca1 = cca::CcaKind::kBbrV1;
  paper.cca2 = cca::CcaKind::kReno;
  Cell pair(paper);
  EXPECT_EQ(pair.flows().flow(0).sender->cc().name(), "bbr1");
  EXPECT_EQ(pair.flows().flow(1).sender->cc().name(), "reno");
  Cell cls(test::class_cell({elephant(cca::CcaKind::kHtcp)}, 1));
  EXPECT_EQ(cls.flows().flow(0).sender->cc().name(), "htcp");
}

TEST(Flow, AggregationAppliesToWirePackets) {
  ExperimentConfig cfg = test::class_cell({elephant(cca::CcaKind::kCubic)}, 5);
  cfg.aggregation = 4;
  Cell cell(cfg);
  cell.run_chunk(0);
  // Receiver counts bytes: all units are agg*mss on the wire.
  const std::uint64_t bytes = cell.flows().flow(0).receiver->delivered_bytes();
  EXPECT_EQ(bytes % (4 * 8900), 0u);
  EXPECT_GT(bytes, 0u);
}

TEST(Flow, TwoFlowsShareOneHostPair) {
  workload::TrafficClass two = elephant(cca::CcaKind::kCubic);
  two.count = 2;
  const ExperimentResult res = Cell(test::class_cell({two}, 20)).run_to_completion();
  ASSERT_EQ(res.flows.size(), 2u);
  EXPECT_EQ(res.flows[0].sender, 0);
  EXPECT_EQ(res.flows[1].sender, 0);
  EXPECT_GT(res.flows[0].throughput_bps, 10e6);
  EXPECT_GT(res.flows[1].throughput_bps, 10e6);
  EXPECT_LT(res.flows[0].throughput_bps + res.flows[1].throughput_bps, 100e6 * 1.02);
}

}  // namespace
}  // namespace elephant::exp
