#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "test_util.hpp"

namespace elephant::exp {
namespace {

std::vector<ExperimentConfig> tiny_matrix() {
  auto m = make_matrix({{cca::CcaKind::kCubic, cca::CcaKind::kCubic},
                        {cca::CcaKind::kReno, cca::CcaKind::kCubic}},
                       {aqm::AqmKind::kFifo}, {1.0}, {100e6});
  for (auto& cfg : m) cfg.duration = sim::Time::seconds(5);
  return m;
}

TEST(Sweep, ResultsInInputOrder) {
  SweepOptions opts;
  opts.use_cache = false;
  opts.threads = 1;
  const SweepReport report = run_sweep_resilient(tiny_matrix(), opts);
  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.records[0].result.config.cca1, cca::CcaKind::kCubic);
  EXPECT_EQ(report.records[1].result.config.cca1, cca::CcaKind::kReno);
  for (const RunRecord& r : report.records) EXPECT_GT(r.result.utilization, 0.1);
}

TEST(Sweep, ProgressCallbackSeesEveryConfig) {
  SweepOptions opts;
  opts.use_cache = false;
  std::atomic<int> calls{0};
  std::size_t last_total = 0;
  opts.on_result = [&](const AveragedResult&, std::size_t, std::size_t total) {
    ++calls;
    last_total = total;
  };
  (void)run_sweep_resilient(tiny_matrix(), opts);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(last_total, 2u);
}

TEST(Sweep, MultiThreadedMatchesSingleThreaded) {
  SweepOptions serial;
  serial.use_cache = false;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.use_cache = false;
  parallel.threads = 2;
  const SweepReport a = run_sweep_resilient(tiny_matrix(), serial);
  const SweepReport b = run_sweep_resilient(tiny_matrix(), parallel);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].result.utilization, b.records[i].result.utilization);
    EXPECT_DOUBLE_EQ(a.records[i].result.jain2, b.records[i].result.jain2);
  }
}

TEST(Sweep, EmptyInputIsEmptyOutput) {
  EXPECT_TRUE(run_sweep_resilient({}, SweepOptions{}).records.empty());
}

TEST(Sweep, AveragingAcrossRepsIsMean) {
  ExperimentConfig cfg = tiny_matrix()[0];
  ExperimentResult r1 = run_experiment(cfg);
  ExperimentConfig cfg2 = cfg;
  cfg2.seed = cfg.seed + 1000003;
  ExperimentResult r2 = run_experiment(cfg2);
  const auto avg = average(cfg, {r1, r2});
  EXPECT_EQ(avg.repetitions, 2);
  EXPECT_NEAR(avg.utilization, (r1.utilization + r2.utilization) / 2, 1e-12);
  EXPECT_NEAR(avg.sender_bps[0], (r1.sender_bps[0] + r2.sender_bps[0]) / 2, 1e-6);
}

}  // namespace
}  // namespace elephant::exp
