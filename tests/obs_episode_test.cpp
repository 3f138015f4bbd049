#include "obs/episode.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/config.hpp"
#include "exp/result_digest.hpp"
#include "exp/runner.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace elephant::obs {
namespace {

EpisodeOptions opts(double window = 1.0, double enter = 0.6, double exit = 0.8) {
  EpisodeOptions o;
  o.enabled = true;
  o.window_s = window;
  o.enter_jain = enter;
  o.exit_jain = exit;
  return o;
}

/// Two-elephant cumulative sample at one window boundary.
std::vector<FlowSample> flows2(std::uint64_t b1, std::uint64_t b2,
                               bool active1 = true, bool active2 = true) {
  FlowSample f1;
  f1.flow = 1;
  f1.side = 1;
  f1.delivered_bytes = b1;
  f1.cwnd_segments = 10;
  f1.active = active1;
  FlowSample f2 = f1;
  f2.flow = 2;
  f2.side = 2;
  f2.delivered_bytes = b2;
  f2.active = active2;
  return {f1, f2};
}

TEST(EpisodeDetectorTest, FairRunProducesNoEpisodes) {
  EpisodeDetector det(opts());
  QueueSample q;
  det.sample(0, flows2(0, 0), q);
  for (int t = 1; t <= 5; ++t) {
    det.sample(t, flows2(1000u * t, 1000u * t), q);
  }
  det.finish(5);
  EXPECT_TRUE(det.episodes().empty());
  EXPECT_FALSE(det.in_episode());
}

TEST(EpisodeDetectorTest, OpensOnEnterThresholdAndClosesOnExit) {
  EpisodeDetector det(opts());
  QueueSample q;
  det.sample(0, flows2(0, 0), q);
  det.sample(1, flows2(100, 100), q);          // fair window
  det.sample(2, flows2(1100, 110), q);         // 1000 vs 10 → jain ≈ 0.51
  EXPECT_TRUE(det.in_episode());
  det.sample(3, flows2(2100, 120), q);         // still unfair
  det.sample(4, flows2(2600, 620), q);         // 500 vs 500 → jain 1, closes
  EXPECT_FALSE(det.in_episode());
  det.finish(4);

  ASSERT_EQ(det.episodes().size(), 1u);
  const Episode& e = det.episodes()[0];
  EXPECT_DOUBLE_EQ(e.start_s, 1.0);  // start of the first unfair window
  EXPECT_DOUBLE_EQ(e.end_s, 3.0);    // end of the last unfair window
  EXPECT_LT(e.worst_jain, 0.6);
  EXPECT_EQ(e.victim_flow, 2u);
  EXPECT_EQ(e.victim_side, 2);
  EXPECT_LT(e.victim_share, 0.1);  // ~10 bytes against a fair share of ~505
  EXPECT_EQ(e.cause, "unknown");   // no queue/loss/rto evidence was fed
}

TEST(EpisodeDetectorTest, HysteresisKeepsEpisodeOpenBetweenThresholds) {
  EpisodeDetector det(opts(1.0, 0.6, 0.8));
  QueueSample q;
  det.sample(0, flows2(0, 0), q);
  det.sample(1, flows2(1000, 10), q);    // jain ≈ 0.51 < 0.6 → open
  ASSERT_TRUE(det.in_episode());
  det.sample(2, flows2(1400, 110), q);   // 400 vs 100 → jain ≈ 0.74: stays open
  EXPECT_TRUE(det.in_episode());
  det.sample(3, flows2(1900, 610), q);   // equal deltas → jain 1 ≥ 0.8: closes
  EXPECT_FALSE(det.in_episode());
  ASSERT_EQ(det.episodes().size(), 1u);
  EXPECT_DOUBLE_EQ(det.episodes()[0].end_s, 2.0);
}

TEST(EpisodeDetectorTest, AccumulatesEvidenceAndClassifiesLossBurst) {
  EpisodeDetector det(opts());
  QueueSample q;
  det.sample(0, flows2(0, 0), q);
  det.sample(1, flows2(100, 100), q);  // fair; pre-episode evidence ignored
  q.injected_loss = 5;
  det.sample(2, flows2(1100, 110), q);  // unfair window with 5 injected drops
  q.injected_loss = 12;
  q.ecn_marked = 3;
  det.sample(3, flows2(2100, 120), q);  // 7 more drops, 3 marks
  det.finish(3);

  ASSERT_EQ(det.episodes().size(), 1u);
  const Episode& e = det.episodes()[0];
  EXPECT_EQ(e.loss_injected, 12u);
  EXPECT_EQ(e.ecn_marks, 3u);
  EXPECT_EQ(e.cause, "loss-burst");  // injected loss outranks ecn marks
}

TEST(EpisodeDetectorTest, FaultWithoutInjectedLossClassifiesAsFault) {
  EpisodeDetector det(opts());
  QueueSample q;
  det.sample(0, flows2(0, 0), q);
  q.faults_applied = 1;
  det.sample(1, flows2(1000, 10), q);
  det.finish(1);
  ASSERT_EQ(det.episodes().size(), 1u);
  EXPECT_EQ(det.episodes()[0].cause, "fault");
}

TEST(EpisodeDetectorTest, PartiallyActiveFlowsDoNotFakeStarvation) {
  // Flow 2 joins mid-run: in the window where it was not yet active for the
  // whole span, n_active < 2 and the window must read as fair.
  EpisodeDetector det(opts());
  QueueSample q;
  det.sample(0, flows2(0, 0, true, /*active2=*/false), q);
  det.sample(1, flows2(1000, 0, true, /*active2=*/true), q);  // f2 newborn
  EXPECT_FALSE(det.in_episode());
  det.sample(2, flows2(2000, 1000), q);  // both active, equal deltas
  det.finish(2);
  EXPECT_TRUE(det.episodes().empty());
}

TEST(EpisodeDetectorTest, FinishClosesOpenEpisodeAtRunEnd) {
  EpisodeDetector det(opts());
  QueueSample q;
  det.sample(0, flows2(0, 0), q);
  det.sample(1, flows2(1000, 10), q);
  ASSERT_TRUE(det.in_episode());
  det.finish(1.5);
  ASSERT_EQ(det.episodes().size(), 1u);
  EXPECT_DOUBLE_EQ(det.episodes()[0].end_s, 1.5);
  EXPECT_FALSE(det.in_episode());
}

TEST(EpisodeDetectorTest, WritesOneJsonLinePerEpisode) {
  EpisodeDetector det(opts());
  QueueSample q;
  det.sample(0, flows2(0, 0), q);
  det.sample(1, flows2(1000, 10), q);
  det.finish(1);
  ASSERT_EQ(det.episodes().size(), 1u);

  const auto path = std::filesystem::temp_directory_path() /
                    ("elephant_episodes_" + std::to_string(::getpid()) + ".jsonl");
  ASSERT_TRUE(det.write_jsonl(path.string(), "cell-a"));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"cell\":\"cell-a\""), std::string::npos);
  EXPECT_NE(line.find("\"victim_flow\":2"), std::string::npos);
  EXPECT_NE(line.find("\"cause\":"), std::string::npos);
  EXPECT_FALSE(std::getline(in, line));
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Integration: the probe wired through a real cell.

exp::ExperimentConfig episode_config(double duration_s) {
  auto cfg = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                aqm::AqmKind::kFifo, 2.0, 100e6, duration_s);
  cfg.episodes.enabled = true;
  cfg.episodes.window_s = 0.5;
  return cfg;
}

TEST(EpisodeIntegrationTest, PlantedLossBurstYieldsAttributedEpisode) {
  // A 40% GE loss burst over t ∈ [8, 12) on a 2-elephant cell: some window
  // inside the burst must starve one flow against the other hard enough to
  // open an episode, and the coincident injected drops must tag it.
  auto cfg = episode_config(20);
  cfg.episodes.enter_jain = 0.75;
  cfg.episodes.exit_jain = 0.9;
  for (const fault::FaultEvent& e :
       fault::FaultPlan::loss_burst(sim::Time::seconds(8), 0.4, sim::Time::seconds(4))
           .events) {
    cfg.fault_plan.add(e);
  }
  const exp::ExperimentResult res = test::run_uncached(cfg);

  ASSERT_GE(res.episodes.size(), 1u);
  bool found_burst = false;
  for (const Episode& e : res.episodes) {
    if (e.cause != "loss-burst") continue;
    found_burst = true;
    EXPECT_GT(e.loss_injected, 0u);
    EXPECT_TRUE(e.victim_side == 1 || e.victim_side == 2);
    EXPECT_GE(e.end_s, 8.0);    // overlaps the burst
    EXPECT_LE(e.start_s, 13.0); // (allow recovery tail past revert)
  }
  EXPECT_TRUE(found_burst) << "no episode attributed to the planted loss burst";
}

TEST(EpisodeIntegrationTest, SymmetricFaultFreeCellYieldsNoEpisodes) {
  const exp::ExperimentResult res = test::run_uncached(episode_config(20));
  EXPECT_TRUE(res.episodes.empty());
}

TEST(EpisodeIntegrationTest, DetectionIsDigestNeutralSingleShard) {
  auto plain = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kReno,
                                  aqm::AqmKind::kFifo, 2.0, 100e6, 10);
  auto instrumented = plain;
  instrumented.episodes.enabled = true;
  instrumented.episodes.window_s = 0.5;
  MetricsRegistry reg;  // metrics and prof.cell_* histograms on top
  instrumented.metrics = &reg;

  const exp::ExperimentResult a = test::run_uncached(plain);
  const exp::ExperimentResult b = test::run_uncached(instrumented);
  EXPECT_EQ(exp::metrics_digest(a), exp::metrics_digest(b))
      << "episode sampling perturbed the schedule";
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_GT(reg.histogram("prof.cell_run_s").count(), 0u);
}

}  // namespace
}  // namespace elephant::obs
