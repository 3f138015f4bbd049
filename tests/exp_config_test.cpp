#include "exp/config.hpp"

#include <gtest/gtest.h>

#include "exp/sweep.hpp"

namespace elephant::exp {
namespace {

TEST(Config, BdpMatchesPaperEquation) {
  ExperimentConfig cfg;
  cfg.bottleneck_bps = 1e9;
  cfg.rtt = sim::Time::milliseconds(62);
  // BDP = BW * RTT / 8 = 1e9 * 0.062 / 8 = 7.75 MB.
  EXPECT_NEAR(cfg.bdp_bytes(), 7.75e6, 1.0);
  cfg.buffer_bdp = 2;
  EXPECT_NEAR(cfg.buffer_bytes(), 15.5e6, 1.0);
}

TEST(Config, PaperFlowCountsMatchTable2) {
  EXPECT_EQ(ExperimentConfig::paper_flows_for(100e6), 2u);
  EXPECT_EQ(ExperimentConfig::paper_flows_for(500e6), 10u);
  EXPECT_EQ(ExperimentConfig::paper_flows_for(1e9), 20u);
  EXPECT_EQ(ExperimentConfig::paper_flows_for(10e9), 200u);
  EXPECT_EQ(ExperimentConfig::paper_flows_for(25e9), 500u);
}

TEST(Config, AggregationGrowsWithBandwidth) {
  EXPECT_EQ(ExperimentConfig::default_aggregation_for(100e6), 1u);
  EXPECT_LE(ExperimentConfig::default_aggregation_for(1e9), 4u);
  EXPECT_GE(ExperimentConfig::default_aggregation_for(25e9),
            ExperimentConfig::default_aggregation_for(10e9));
}

TEST(Config, IdIsStableAndUnique) {
  ExperimentConfig a;
  ExperimentConfig b;
  EXPECT_EQ(a.id(), b.id());
  b.buffer_bdp = 4;
  EXPECT_NE(a.id(), b.id());
  b = a;
  b.seed = 43;
  EXPECT_NE(a.id(), b.id());
  b = a;
  b.aqm = aqm::AqmKind::kRed;
  EXPECT_NE(a.id(), b.id());
}

// id() is the result-cache key and the manifest's cell name, so its exact
// text is pinned: a change here orphans every cached result and manifest.
TEST(Config, IdLiteralForPaperCell) {
  ExperimentConfig cfg;
  cfg.cca1 = cca::CcaKind::kBbrV1;
  cfg.cca2 = cca::CcaKind::kCubic;
  cfg.aqm = aqm::AqmKind::kFifo;
  cfg.buffer_bdp = 2;
  cfg.bottleneck_bps = 25e9;
  EXPECT_EQ(cfg.id(), "bbr1_vs_cubic-fifo-bdp2-25G-f500-d45-a16-r62-s42");
}

TEST(Config, IdLiteralForEpisodeCell) {
  ExperimentConfig cfg;
  cfg.cca1 = cca::CcaKind::kCubic;
  cfg.cca2 = cca::CcaKind::kReno;
  cfg.aqm = aqm::AqmKind::kFqCodel;
  cfg.buffer_bdp = 0.5;
  cfg.bottleneck_bps = 100e6;
  cfg.episodes.enabled = true;
  cfg.episodes.window_s = 0.5;
  EXPECT_EQ(cfg.id(), "cubic_vs_reno-fq_codel-bdp0.5-100M-f2-d200-a1-r62-s42-ep0.5,0.6,0.8");
}

TEST(Config, IdLiteralForMiceCell) {
  ExperimentConfig cfg;
  cfg.cca1 = cca::CcaKind::kCubic;
  cfg.cca2 = cca::CcaKind::kBbrV1;
  cfg.aqm = aqm::AqmKind::kFifo;
  cfg.buffer_bdp = 1;
  cfg.bottleneck_bps = 100e6;
  cfg.duration = sim::Time::seconds(25);
  cfg.workload = workload::WorkloadSpec::mice_elephants();
  EXPECT_EQ(cfg.id(),
            "cubic_vs_bbr1-fifo-bdp1-100M-f2-d25-a1-r62-s42-wl[elephants:elephant,pair,n0,sd-1,"
            "stagger,o0,w0.5,r0+mice:finite,cubic,n40,sd-1,stagger,o2,w20,r0,par500000,1.5]");
}

TEST(Config, BwLabels) {
  EXPECT_EQ(bw_label(100e6), "100M");
  EXPECT_EQ(bw_label(500e6), "500M");
  EXPECT_EQ(bw_label(1e9), "1G");
  EXPECT_EQ(bw_label(10e9), "10G");
  EXPECT_EQ(bw_label(25e9), "25G");
}

TEST(Config, PaperMatrixHas810Cells) {
  EXPECT_EQ(make_matrix(paper_cca_pairs(), paper_aqms(), paper_buffer_bdps(),
                        paper_bandwidths())
                .size(),
            810u);
}

TEST(Config, PaperAxesMatchTable1) {
  EXPECT_EQ(paper_bandwidths().size(), 5u);
  EXPECT_EQ(paper_buffer_bdps().size(), 6u);
  EXPECT_EQ(paper_aqms().size(), 3u);
  EXPECT_EQ(paper_cca_pairs().size(), 9u);
}

TEST(Config, IntraDetection) {
  ExperimentConfig cfg;
  cfg.cca1 = cca::CcaKind::kCubic;
  cfg.cca2 = cca::CcaKind::kCubic;
  EXPECT_TRUE(cfg.intra());
  cfg.cca1 = cca::CcaKind::kBbrV1;
  EXPECT_FALSE(cfg.intra());
}

TEST(Config, KindStringsRoundTrip) {
  using cca::CcaKind;
  for (CcaKind k : {CcaKind::kReno, CcaKind::kCubic, CcaKind::kHtcp, CcaKind::kBbrV1,
                    CcaKind::kBbrV2}) {
    EXPECT_EQ(cca::cca_kind_from_string(cca::to_string(k)), k);
  }
  using aqm::AqmKind;
  for (AqmKind k : {AqmKind::kFifo, AqmKind::kRed, AqmKind::kFqCodel, AqmKind::kCodel}) {
    EXPECT_EQ(aqm::aqm_kind_from_string(aqm::to_string(k)), k);
  }
  EXPECT_THROW(cca::cca_kind_from_string("nope"), std::invalid_argument);
  EXPECT_THROW(aqm::aqm_kind_from_string("nope"), std::invalid_argument);
}

TEST(Config, EffectiveDurationRespectsOverride) {
  ExperimentConfig cfg;
  cfg.duration = sim::Time::seconds(12);
  EXPECT_EQ(cfg.effective_duration(), sim::Time::seconds(12));
  cfg.duration = sim::Time::zero();
  EXPECT_GT(cfg.effective_duration(), sim::Time::zero());
}

TEST(Config, MatrixBuilderRespectsAxes) {
  auto m = make_matrix({{cca::CcaKind::kCubic, cca::CcaKind::kCubic}},
                       {aqm::AqmKind::kFifo}, {1.0, 2.0}, {1e9});
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].buffer_bdp, 1.0);
  EXPECT_EQ(m[1].buffer_bdp, 2.0);
}

}  // namespace
}  // namespace elephant::exp
