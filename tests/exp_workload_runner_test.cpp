// End-to-end tests of mixed-traffic cells: mice (finite transfers) sharing
// the bottleneck with the paper's elephants, built through exp::FlowFactory
// from a WorkloadSpec.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "exp/runner.hpp"
#include "trace/sinks.hpp"
#include "trace/trace.hpp"

namespace elephant::exp {
namespace {

// A cheap mixed cell: 2 paper elephants + 12 fixed-size CUBIC mice that all
// arrive in the first half of the run, so every mouse finishes comfortably.
ExperimentConfig mixed_cell() {
  ExperimentConfig cfg;
  cfg.cca1 = cca::CcaKind::kCubic;
  cfg.cca2 = cca::CcaKind::kBbrV1;
  cfg.aqm = aqm::AqmKind::kFifo;
  cfg.buffer_bdp = 1.0;
  cfg.bottleneck_bps = 100e6;
  cfg.duration = sim::Time::seconds(30);
  cfg.seed = 20240817;

  workload::TrafficClass elephants;
  elephants.name = "elephants";
  elephants.kind = workload::ClassKind::kElephant;
  elephants.cca_from_pair = true;

  workload::TrafficClass mice;
  mice.name = "mice";
  mice.kind = workload::ClassKind::kFinite;
  mice.cca = cca::CcaKind::kCubic;
  mice.count = 12;
  mice.start_offset = sim::Time::seconds(2);
  mice.start_window = sim::Time::seconds(12);
  mice.size = workload::SizeSpec::fixed(250e3);

  cfg.workload.classes = {elephants, mice};
  return cfg;
}

const ClassResult& find_class(const ExperimentResult& res, const std::string& name) {
  for (const ClassResult& c : res.classes) {
    if (c.name == name) return c;
  }
  ADD_FAILURE() << "class " << name << " missing from result";
  static ClassResult none;
  return none;
}

TEST(WorkloadRunner, MixedCellCompletesEveryMouse) {
  const ExperimentResult res = run_experiment(mixed_cell());

  // Both populations were instantiated.
  ASSERT_EQ(res.classes.size(), 2u);
  const ClassResult& elephants = find_class(res, "elephants");
  const ClassResult& mice = find_class(res, "mice");
  EXPECT_EQ(elephants.flows, 2u);  // paper Table 2 count at 100 Mbps
  EXPECT_EQ(mice.flows, 12u);

  // Every finite flow completed, with a finite, ordered FCT distribution.
  EXPECT_EQ(mice.completed, mice.flows);
  EXPECT_GT(mice.fct_p50_s, 0.0);
  EXPECT_TRUE(std::isfinite(mice.fct_p99_s));
  EXPECT_LE(mice.fct_p50_s, mice.fct_p95_s);
  EXPECT_LE(mice.fct_p95_s, mice.fct_p99_s);
  // Slowdown ≥ 1: nobody beats an empty path.
  EXPECT_GE(mice.slowdown_p50, 1.0);
  EXPECT_LE(mice.slowdown_p50, mice.slowdown_p99);

  // Mixed-traffic utilization is delivered bytes over capacity — a physical
  // quantity, so it cannot exceed 1 (plus header overhead slack).
  EXPECT_GT(res.utilization, 0.5);
  EXPECT_LE(res.utilization, 1.05);

  // Elephants never complete and dominate the byte share.
  EXPECT_EQ(elephants.completed, 0u);
  EXPECT_GT(elephants.share, mice.share);
  EXPECT_NEAR(elephants.share + mice.share, 1.0, 1e-9);

  // Per-flow rows carry the workload bookkeeping.
  std::uint32_t finite = 0;
  for (const FlowResult& fr : res.flows) {
    if (fr.cls == "mice") {
      ++finite;
      EXPECT_EQ(fr.transfer_bytes, 250000u);
      EXPECT_TRUE(fr.completed);
      EXPECT_GT(fr.fct_s, 0.0);
      EXPECT_GE(fr.start_s, 2.0);
      EXPECT_LE(fr.start_s, 14.0);
    } else {
      EXPECT_EQ(fr.cls, "elephants");
      EXPECT_FALSE(fr.completed);
    }
  }
  EXPECT_EQ(finite, 12u);
}

TEST(WorkloadRunner, SameSeedIsBitReproducible) {
  const ExperimentResult a = run_experiment(mixed_cell());
  const ExperimentResult b = run_experiment(mixed_cell());
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].throughput_bps, b.flows[i].throughput_bps) << "flow " << i;
    EXPECT_EQ(a.flows[i].fct_s, b.flows[i].fct_s) << "flow " << i;
    EXPECT_EQ(a.flows[i].start_s, b.flows[i].start_s) << "flow " << i;
    EXPECT_EQ(a.flows[i].retx_segments, b.flows[i].retx_segments) << "flow " << i;
  }
  EXPECT_EQ(a.retx_segments, b.retx_segments);
  EXPECT_EQ(a.bottleneck.enqueued, b.bottleneck.enqueued);
}

TEST(WorkloadRunner, SeedChangesTheMiceDraws) {
  ExperimentConfig cfg = mixed_cell();
  const ExperimentResult a = run_experiment(cfg);
  cfg.seed = 123456789;
  const ExperimentResult b = run_experiment(cfg);
  // Start times are drawn from the per-class sub-stream of the cell seed, so
  // a different seed must move them.
  bool any_start_differs = false;
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    if (a.flows[i].cls == "mice" && a.flows[i].start_s != b.flows[i].start_s) {
      any_start_differs = true;
    }
  }
  EXPECT_TRUE(any_start_differs);
}

TEST(WorkloadRunner, TraceCarriesFlowStartAndEndRecords) {
  trace::MemorySink sink;
  trace::Tracer tracer(sink, 1 << 14);
  tracer.enable_only({trace::RecordType::kFlowStart, trace::RecordType::kFlowEnd});
  ExperimentConfig cfg = mixed_cell();
  cfg.tracer = &tracer;
  const ExperimentResult res = run_experiment(cfg);
  tracer.flush();

  std::size_t starts = 0;
  std::size_t ends = 0;
  for (const trace::TraceRecord& r : sink.records()) {
    if (r.type == trace::RecordType::kFlowStart) {
      ++starts;
      EXPECT_TRUE(r.v0 == 0.0 || r.v0 == 1.0);  // class index
      EXPECT_TRUE(r.v2 == 0.0 || r.v2 == 1.0);  // dumbbell side
    } else if (r.type == trace::RecordType::kFlowEnd) {
      ++ends;
      EXPECT_EQ(r.v0, 1.0);                       // only the mice complete
      EXPECT_DOUBLE_EQ(r.v1, 250000.0);           // transfer bytes
      EXPECT_GT(r.v2, 0.0);                       // FCT seconds
    }
  }
  EXPECT_EQ(starts, res.n_flows);
  const ClassResult& mice = find_class(res, "mice");
  EXPECT_EQ(ends, mice.completed);
}

TEST(WorkloadRunner, AveragedRunCarriesClasses) {
  ExperimentConfig cfg = mixed_cell();
  const AveragedResult avg = run_averaged(cfg, /*reps=*/2);
  ASSERT_EQ(avg.classes.size(), 2u);
  EXPECT_EQ(avg.classes[1].name, "mice");
  EXPECT_EQ(avg.classes[1].flows, 12u);
  EXPECT_EQ(avg.classes[1].completed, 12u);
  EXPECT_GT(avg.classes[1].fct_p50_s, 0.0);
}

TEST(WorkloadRunner, DefaultWorkloadReportsNoClasses) {
  ExperimentConfig cfg = mixed_cell();
  cfg.workload = workload::WorkloadSpec::paper();
  cfg.duration = sim::Time::seconds(5);
  const ExperimentResult res = run_experiment(cfg);
  EXPECT_TRUE(res.classes.empty());
  for (const FlowResult& fr : res.flows) EXPECT_TRUE(fr.cls.empty());
}

}  // namespace
}  // namespace elephant::exp
