// Engine-swap determinism regression: the allocation-free event engine
// (inplace callbacks, per-port delay lines, re-armable timer slots, indexed
// 4-ary heap) must be bit-for-bit behaviour-preserving. These tests run a
// paper cell and a fault-injection cell with a fixed seed and compare the
// full flight-recorder trace digest and the final metrics digest against
// golden values captured from the pre-swap engine (binary heap of
// std::function entries, one heap event per packet per hop).
//
// To regenerate after an *intentional* behaviour change, run with
// ELEPHANT_PRINT_DIGESTS=1 and paste the printed values below — but any
// divergence should first be treated as a lost-determinism bug.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <utility>

#include "exp/cell.hpp"
#include "exp/result_digest.hpp"
#include "exp/runner.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "trace/sinks.hpp"
#include "trace/trace.hpp"
#include "workload/workload.hpp"

namespace elephant {
namespace {

struct CellDigest {
  std::uint64_t trace = 0;    ///< FNV-1a over every trace record, in order
  std::uint64_t metrics = 0;  ///< FNV-1a over the final ExperimentResult
  std::uint64_t records = 0;  ///< record count (localizes a digest mismatch)
};

CellDigest run_cell(exp::ExperimentConfig cfg,
                    obs::MetricsRegistry* metrics = nullptr) {
  trace::DigestSink sink;
  trace::Tracer tracer(sink, /*capacity=*/4096);
  cfg.tracer = &tracer;
  cfg.metrics = metrics;
  const exp::ExperimentResult res = exp::run_experiment(cfg);

  CellDigest d;
  d.trace = sink.digest();
  d.records = sink.count();
  // Final metrics via the shared fold (exp/result_digest.hpp) — the same
  // digest `elephant run --check-digest`, the snapshot round-trip tests, and
  // the explorer's replay verification compute, so golden values here pin
  // all of them. events_executed is deliberately excluded from that fold: it
  // counts engine-internal timer wakeups, which may legitimately change
  // across engine versions without the simulation behaving any differently.
  d.metrics = exp::metrics_digest(res);
  return d;
}

void check(const char* name, const CellDigest& got, const CellDigest& want) {
  if (std::getenv("ELEPHANT_PRINT_DIGESTS") != nullptr) {
    std::printf("golden %s = {0x%016llxull, 0x%016llxull, %lluull};\n", name,
                static_cast<unsigned long long>(got.trace),
                static_cast<unsigned long long>(got.metrics),
                static_cast<unsigned long long>(got.records));
    GTEST_SKIP() << "digest-print mode";
  }
  EXPECT_EQ(got.records, want.records) << name << ": trace record count drifted";
  EXPECT_EQ(got.trace, want.trace) << name << ": trace digest drifted";
  EXPECT_EQ(got.metrics, want.metrics) << name << ": final metrics drifted";
}

// A paper matrix cell: CUBIC vs BBRv1, FIFO, 1 BDP, 100 Mbps, 62 ms RTT.
exp::ExperimentConfig paper_cell() {
  exp::ExperimentConfig cfg;
  cfg.cca1 = cca::CcaKind::kCubic;
  cfg.cca2 = cca::CcaKind::kBbrV1;
  cfg.aqm = aqm::AqmKind::kFifo;
  cfg.buffer_bdp = 1.0;
  cfg.bottleneck_bps = 100e6;
  cfg.duration = sim::Time::seconds(5);
  cfg.seed = 20240817;
  return cfg;
}

// The same cell under the two fault kinds the CLI exposes: a link flap
// (two 120 ms outages) and a 2% loss burst.
exp::ExperimentConfig flap_loss_cell() {
  exp::ExperimentConfig cfg = paper_cell();
  cfg.fault_plan = fault::FaultPlan::link_flap(sim::Time::seconds(1),
                                               sim::Time::milliseconds(120), 2);
  for (const fault::FaultEvent& e :
       fault::FaultPlan::loss_burst(sim::Time::seconds(2), 0.02, sim::Time::seconds(1))
           .events) {
    cfg.fault_plan.add(e);
  }
  return cfg;
}

// The paper cell with both arrival-loss knobs on: Bernoulli loss and bursty
// Gilbert–Elliott loss ahead of the bottleneck queue. Traced, so every
// injected-drop record is hashed.
exp::ExperimentConfig lossy_cell() {
  exp::ExperimentConfig cfg = paper_cell();
  cfg.random_loss = 0.005;
  cfg.ge_loss = fault::GilbertElliottParams::from_loss(0.003, 20);
  return cfg;
}

// Golden digests. The paper cell is captured from the PRE-SWAP engine and
// passed unchanged through the swap AND through the conditional-wake port
// rework: the unperturbed path is bit-identical across all three engines.
constexpr CellDigest kGoldenPaperCell = {0x715fc370d3642f49ull, 0xa1201808252779ebull,
                                         107850ull};

// Captured while Bernoulli and Gilbert–Elliott loss were still qdisc
// decorators; the arrival-loss stage must reproduce it bit for bit.
constexpr CellDigest kGoldenLossyCell = {0x354be9a5f265064eull, 0x1fb02c8b57fd55eaull,
                                         17467ull};

TEST(DeterminismDigest, PaperCellMatchesPreSwapEngine) {
  check("kGoldenPaperCell", run_cell(paper_cell()), kGoldenPaperCell);
}

// Captured from the build that still had rate, reorder, duplicate and
// jitter faults (and the delay line's general-heap fallback); the link
// model without them must reproduce it bit for bit.
constexpr CellDigest kGoldenFlapLossCell = {0x0df4d0281b56d237ull, 0x154b1d656a752c8full,
                                           18523ull};

TEST(DeterminismDigest, FlapLossCellMatchesGolden) {
  check("kGoldenFlapLossCell", run_cell(flap_loss_cell()), kGoldenFlapLossCell);
}

TEST(DeterminismDigest, LossyCellMatchesGolden) {
  check("kGoldenLossyCell", run_cell(lossy_cell()), kGoldenLossyCell);
}

// The mixed-traffic cell the ledger's mice claims run: the paper cell's
// elephants plus the mice-elephants preset's 40 staggered Pareto-sized CUBIC
// mice, run long enough that every mouse has started (arrivals span 2-22 s).
// Traced, so each mouse's kFlowStart/kFlowEnd record (size, FCT) is hashed.
exp::ExperimentConfig mice_cell() {
  exp::ExperimentConfig cfg = paper_cell();
  cfg.duration = sim::Time::seconds(25);
  cfg.workload = workload::WorkloadSpec::mice_elephants();
  return cfg;
}

constexpr CellDigest kGoldenMiceElephantsCell = {0x0bf1c728c0683bb0ull, 0x4b418270dc8bca08ull,
                                                     91615ull};

TEST(DeterminismDigest, MiceElephantsCellMatchesGolden) {
  check("kGoldenMiceElephantsCell", run_cell(mice_cell()), kGoldenMiceElephantsCell);
}

// Final-metrics goldens for the other two paper AQMs, which the FIFO cells
// above never reach. They were captured before FQ-CoDel's overflow victim
// search became a tournament tree and before the RED and FQ-CoDel packet
// queues moved onto sim::RingDeque; both changes must leave them untouched.
//   fq_codel 0.5 BDP at 100M: nearly every enqueue overflows, so the
//                             fattest-bucket victim choice is on every path.
//   fq_codel 1 BDP at 10G:    200 flows spread over many buckets.
//   red 2 BDP at 1G:          early drops from the seeded RED RNG.
exp::ExperimentConfig aqm_cell(cca::CcaKind cca1, cca::CcaKind cca2, aqm::AqmKind aqm,
                               double buffer_bdp, double bottleneck_bps) {
  exp::ExperimentConfig cfg;
  cfg.cca1 = cca1;
  cfg.cca2 = cca2;
  cfg.aqm = aqm;
  cfg.buffer_bdp = buffer_bdp;
  cfg.bottleneck_bps = bottleneck_bps;
  cfg.duration = sim::Time::seconds(5);
  cfg.seed = 20240817;
  return cfg;
}

void check_metrics(const char* name, const exp::ExperimentConfig& cfg, std::uint64_t want) {
  const std::uint64_t got = exp::metrics_digest(exp::run_experiment(cfg));
  if (std::getenv("ELEPHANT_PRINT_DIGESTS") != nullptr) {
    std::printf("golden %s = 0x%016llxull;\n", name, static_cast<unsigned long long>(got));
    GTEST_SKIP() << "digest-print mode";
  }
  EXPECT_EQ(got, want) << name << ": final metrics drifted";
}

constexpr std::uint64_t kGoldenFqCodelOverflowCell = 0xa5b6f1e59631a797ull;
constexpr std::uint64_t kGoldenFqCodelManyFlowCell = 0xfeacfc43cc50a75full;
constexpr std::uint64_t kGoldenRedCell = 0x61b9e34e1686f505ull;

TEST(DeterminismDigest, FqCodelOverflowCellMatchesGolden) {
  check_metrics("kGoldenFqCodelOverflowCell",
                aqm_cell(cca::CcaKind::kBbrV1, cca::CcaKind::kCubic, aqm::AqmKind::kFqCodel,
                         0.5, 100e6),
                kGoldenFqCodelOverflowCell);
}

TEST(DeterminismDigest, FqCodelManyFlowCellMatchesGolden) {
  check_metrics("kGoldenFqCodelManyFlowCell",
                aqm_cell(cca::CcaKind::kCubic, cca::CcaKind::kCubic, aqm::AqmKind::kFqCodel,
                         1.0, 10e9),
                kGoldenFqCodelManyFlowCell);
}

TEST(DeterminismDigest, RedCellMatchesGolden) {
  check_metrics("kGoldenRedCell",
                aqm_cell(cca::CcaKind::kBbrV2, cca::CcaKind::kCubic, aqm::AqmKind::kRed, 2.0,
                         1e9),
                kGoldenRedCell);
}

// Telemetry is pure observation: attaching a metrics registry to the paper
// cell must leave the flight-recorder trace and final metrics bit-identical
// to the uninstrumented golden run. Any drift means an instrumentation hook
// leaked into simulation behaviour (extra events, RNG draws, reordering).
TEST(DeterminismDigest, PaperCellUnchangedWithTelemetryAttached) {
  obs::MetricsRegistry reg;
  check("kGoldenPaperCell", run_cell(paper_cell(), &reg), kGoldenPaperCell);
  // And the observation itself was live, not silently disabled.
  EXPECT_GT(reg.counter("sim.events").value(), 0u);
  EXPECT_GT(reg.histogram("queue.sojourn_s").count(), 0u);
  EXPECT_GT(reg.histogram("tcp.srtt_s").count(), 0u);
}

// Every observer samples between scheduler calls, so attaching any of them
// (flight recorder, metrics registry, episode probe, or all three) must run
// exactly the events of the bare cell: same final metrics, same executed
// event count, same peak heap depth.
TEST(DeterminismDigest, ObserversLeaveTheRunUntouched) {
  struct Observed {
    std::uint64_t metrics = 0;
    std::uint64_t events = 0;
    std::size_t peak_pending = 0;
  };
  const auto observe = [](exp::ExperimentConfig cfg, bool traced, bool metered,
                          bool episodes) {
    trace::DigestSink sink;
    trace::Tracer tracer(sink, /*capacity=*/4096);
    obs::MetricsRegistry reg;
    if (traced) cfg.tracer = &tracer;
    if (metered) cfg.metrics = &reg;
    cfg.episodes.enabled = episodes;
    exp::Cell cell(cfg);
    const exp::ExperimentResult res = cell.run_to_completion();
    if (traced) {
      EXPECT_GT(sink.count(), 0u);
    }
    return Observed{exp::metrics_digest(res), res.events_executed,
                    cell.scheduler().peak_pending_events()};
  };
  for (const auto& [name, cfg] : {std::pair{"paper", paper_cell()},
                                  std::pair{"flap/loss", flap_loss_cell()}}) {
    const Observed bare = observe(cfg, false, false, false);
    const Observed runs[] = {observe(cfg, true, false, false),
                             observe(cfg, false, true, false),
                             observe(cfg, false, false, true),
                             observe(cfg, true, true, true)};
    const char* labels[] = {"tracer", "metrics", "episodes", "all three"};
    for (std::size_t i = 0; i < std::size(runs); ++i) {
      EXPECT_EQ(runs[i].metrics, bare.metrics) << name << " cell, " << labels[i];
      EXPECT_EQ(runs[i].events, bare.events) << name << " cell, " << labels[i];
      EXPECT_EQ(runs[i].peak_pending, bare.peak_pending) << name << " cell, " << labels[i];
    }
  }
}

// Two runs of the same seeded cell in one process must digest identically —
// catches hidden global state (pool reuse order, static RNGs) regardless of
// golden freshness.
TEST(DeterminismDigest, RepeatedRunsAreBitIdentical) {
  const CellDigest a = run_cell(paper_cell());
  const CellDigest b = run_cell(paper_cell());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.records, b.records);
}

}  // namespace
}  // namespace elephant
