#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "exp/cell.hpp"
#include "exp/status.hpp"
#include "test_util.hpp"

namespace elephant::exp {
namespace {

using cca::CcaKind;

TEST(Runner, FlowSplitIsHalfAndHalf) {
  auto cfg = test::quick_config(CcaKind::kBbrV1, CcaKind::kCubic, aqm::AqmKind::kFifo,
                                2.0, 100e6, 5);
  cfg.total_flows = 8;
  const auto res = run_experiment(cfg);
  int side0 = 0;
  int side1 = 0;
  for (const auto& f : res.flows) {
    (f.sender == 0 ? side0 : side1)++;
  }
  EXPECT_EQ(side0, 4);
  EXPECT_EQ(side1, 4);
}

TEST(Runner, SidesRunTheConfiguredCcas) {
  auto cfg = test::quick_config(CcaKind::kHtcp, CcaKind::kReno, aqm::AqmKind::kFifo, 2.0,
                                100e6, 5);
  const auto res = run_experiment(cfg);
  for (const auto& f : res.flows) {
    EXPECT_EQ(f.cca, f.sender == 0 ? "htcp" : "reno");
  }
}

TEST(Runner, ConfigEchoedInResult) {
  auto cfg = test::quick_config(CcaKind::kCubic, CcaKind::kCubic, aqm::AqmKind::kRed, 4.0,
                                100e6, 5);
  const auto res = run_experiment(cfg);
  EXPECT_EQ(res.config.id(), cfg.id());
}

TEST(Runner, RandomLossReachesTheBottleneck) {
  auto cfg = test::quick_config(CcaKind::kBbrV1, CcaKind::kBbrV1, aqm::AqmKind::kFifo, 2.0,
                                100e6, 10);
  cfg.random_loss = 0.02;
  const auto res = run_experiment(cfg);
  // The port's arrival-loss stage drops are folded into the result's
  // early-drop counter.
  EXPECT_GT(res.bottleneck.dropped_early, 0u);
}

TEST(Runner, WallClockAndEventsPopulated) {
  auto cfg = test::quick_config(CcaKind::kCubic, CcaKind::kCubic, aqm::AqmKind::kFifo, 2.0,
                                100e6, 5);
  const auto res = run_experiment(cfg);
  EXPECT_GT(res.events_executed, 1000u);
  EXPECT_GT(res.wall_seconds, 0.0);
}

TEST(Runner, DifferentSeedsDifferentMicrostate) {
  auto a = test::quick_config(CcaKind::kBbrV2, CcaKind::kCubic, aqm::AqmKind::kFifo, 2.0,
                              100e6, 10);
  auto b = a;
  b.seed = a.seed + 1;
  const auto ra = run_experiment(a);
  const auto rb = run_experiment(b);
  EXPECT_NE(ra.events_executed, rb.events_executed);
}

TEST(Runner, AveragedResultAveragesAcrossSeeds) {
  auto cfg = test::quick_config(CcaKind::kCubic, CcaKind::kCubic, aqm::AqmKind::kFifo, 2.0,
                                100e6, 5);
  const auto avg = run_averaged(cfg, 2);
  EXPECT_EQ(avg.repetitions, 2);
  EXPECT_GT(avg.utilization, 0.3);
  EXPECT_LE(avg.jain2, 1.0);
  EXPECT_GE(avg.jain2, 0.5);
}

TEST(Runner, PaceAllSmoothsLossBasedBursts) {
  auto cfg = test::quick_config(CcaKind::kCubic, CcaKind::kCubic, aqm::AqmKind::kFifo, 0.5,
                                100e6, 20);
  auto paced = cfg;
  paced.pace_all = true;
  const auto res = run_experiment(cfg);
  const auto res_paced = run_experiment(paced);
  // Pacing must not break anything; utilization stays comparable.
  EXPECT_GT(res_paced.utilization, res.utilization - 0.15);
}

TEST(Runner, OddFlowCountRunsEveryFlow) {
  auto cfg = test::quick_config(CcaKind::kCubic, CcaKind::kCubic, aqm::AqmKind::kFifo, 2.0,
                                100e6, 5);
  cfg.total_flows = 3;
  const auto res = run_experiment(cfg);
  // The seed rounded 3 down to 1-per-side and silently ran 2 flows. The
  // remainder now goes to side 0: a 2/1 split, with the actual count echoed.
  ASSERT_EQ(res.flows.size(), 3u);
  EXPECT_EQ(res.n_flows, 3u);
  int side0 = 0;
  int side1 = 0;
  for (const auto& f : res.flows) (f.sender == 0 ? side0 : side1)++;
  EXPECT_EQ(side0, 2);
  EXPECT_EQ(side1, 1);
}

TEST(Runner, TinyRttClampKeepsDelaysPositive) {
  // Regression: an RTT below the default edge-delay sum used to drive the
  // client/server propagation negative, scheduling deliveries in the past.
  auto cfg = test::quick_config(CcaKind::kCubic, CcaKind::kCubic, aqm::AqmKind::kFifo, 2.0,
                                100e6, 5);
  for (const std::int64_t rtt_us : {40, 200, 2000}) {
    cfg.rtt = sim::Time::microseconds(rtt_us);
    // Pin the buffer to ~5 packets: a BDP-derived buffer at these RTTs would
    // be smaller than one segment and starve the link regardless of delays.
    cfg.buffer_bdp = 45000.0 / cfg.bdp_bytes();
    const auto res = run_experiment(cfg);  // invariant checker on by default
    EXPECT_GT(res.events_executed, 1000u) << "rtt=" << rtt_us << "us";
    for (const auto& f : res.flows) {
      EXPECT_TRUE(std::isfinite(f.throughput_bps));
      EXPECT_GE(f.throughput_bps, 0.0);
      // A sub-millisecond path must report a sub-millisecond smoothed RTT,
      // not the 62 ms default split.
      if (rtt_us <= 200) EXPECT_LT(f.srtt_ms, 10.0);
    }
  }
}

TEST(Runner, CustomLargeRttIsHonored) {
  auto cfg = test::quick_config(CcaKind::kCubic, CcaKind::kCubic, aqm::AqmKind::kFifo, 2.0,
                                100e6, 10);
  cfg.rtt = sim::Time::milliseconds(120);
  const auto res = run_experiment(cfg);
  double srtt_min = 1e9;
  for (const auto& f : res.flows) srtt_min = std::min(srtt_min, f.srtt_ms);
  EXPECT_GE(srtt_min, 115.0);  // propagation floor, queueing only adds
}

TEST(Runner, ThroughputWindowExcludesStaggeredStart) {
  auto cfg = test::quick_config(CcaKind::kCubic, CcaKind::kCubic, aqm::AqmKind::kFifo, 2.0,
                                100e6, 5);
  const auto res = run_experiment(cfg);
  const double dur = cfg.effective_duration().sec();
  for (const auto& f : res.flows) {
    EXPECT_GE(f.start_s, 0.0);
    EXPECT_LT(f.start_s, 0.5);  // starts staggered within half a second
    // Goodput is measured over (duration - start), so a flow saturating the
    // link after a late start is not reported below its delivered rate.
    EXPECT_GT(f.throughput_bps, 0.0);
    EXPECT_LT(f.throughput_bps, cfg.bottleneck_bps * 1.01);
    // Reconstructing delivered bytes from the reported window must agree
    // with a full-duration normalization only when start_s == 0.
    const double window = dur - f.start_s;
    EXPECT_GT(window, 0.0);
  }
}

TEST(Runner, DeadCellFailsInvariants) {
  // A buffer below one packet drops every data packet, so no flow delivers
  // a byte. With every rate at 0 Jain's index reads 1.0; the invariant
  // checker refuses the run instead of letting it average in as fair.
  auto cfg = test::quick_config(CcaKind::kCubic, CcaKind::kCubic, aqm::AqmKind::kFifo, 2.0,
                                100e6, 3);
  cfg.buffer_bdp = 1000.0 / cfg.bdp_bytes();
  ASSERT_LT(cfg.buffer_bytes(), cfg.mss);
  EXPECT_THROW((void)run_experiment(cfg), InvariantViolation);
  try {
    (void)run_experiment(cfg);
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("no flow delivered a byte"), std::string::npos)
        << e.what();
  }
}

TEST(Runner, FinalizeBeforeFirstDeliveryIsNotDead) {
  // The model checker finalizes at horizons that can end before the first
  // delivery; only a full run is held to the delivered-bytes check.
  const auto cfg = test::quick_config(CcaKind::kCubic, CcaKind::kCubic, aqm::AqmKind::kFifo,
                                      2.0, 100e6, 3);
  Cell cell(cfg);
  cell.run_chunk(0, sim::Time::milliseconds(10));
  EXPECT_NO_THROW((void)cell.finalize());
}

}  // namespace
}  // namespace elephant::exp
