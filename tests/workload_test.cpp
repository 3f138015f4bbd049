#include "workload/workload.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

namespace elephant::workload {
namespace {

double sample_mean(const SizeSpec& spec, int n, std::uint64_t seed = 7) {
  sim::Rng rng(seed);
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(spec.sample(rng));
  return sum / n;
}

TEST(SizeSpec, FixedIsExact) {
  const SizeSpec s = SizeSpec::fixed(123456);
  sim::Rng rng(1);
  EXPECT_EQ(s.sample(rng), 123456u);
  EXPECT_EQ(s.sample(rng), 123456u);
}

TEST(SizeSpec, ParetoHitsConfiguredMean) {
  // Shape 2.5 has finite variance, so 200k samples settle near the mean.
  const SizeSpec s = SizeSpec::pareto(1e6, 2.5);
  const double mean = sample_mean(s, 200000);
  EXPECT_NEAR(mean, 1e6, 0.05e6);
}

TEST(SizeSpec, ParetoNeverBelowScale) {
  const SizeSpec s = SizeSpec::pareto(1e6, 1.5);
  const double x_min = 1e6 * (1.5 - 1.0) / 1.5;
  sim::Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(s.sample(rng), static_cast<std::uint64_t>(x_min));
  }
}

TEST(SizeSpec, LognormalHitsConfiguredMean) {
  const SizeSpec s = SizeSpec::lognormal(1e6, 1.0);
  const double mean = sample_mean(s, 200000);
  EXPECT_NEAR(mean, 1e6, 0.1e6);
}

TEST(SizeSpec, SamplesAreAtLeastOneByte) {
  const SizeSpec tiny = SizeSpec::lognormal(1.0, 3.0);
  sim::Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(tiny.sample(rng), 1u);
}

TEST(SizeSpec, EmpiricalInterpolatesBetweenPoints) {
  // Two-point CDF: 10 KB at p=0.5, 100 KB at p=1.0. Below the first knot the
  // inverse CDF is flat at the first size; above it, linear between knots.
  const SizeSpec s = SizeSpec::empirical({{0.5, 10e3}, {1.0, 100e3}});
  sim::Rng rng(11);
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t b = s.sample(rng);
    lo = std::min(lo, b);
    hi = std::max(hi, b);
    EXPECT_LE(b, 100000u);
  }
  EXPECT_EQ(lo, 10000u);  // u < 0.5 clamps to the first knot's size
  EXPECT_GT(hi, 90000u);
}

TEST(SizeSpec, EmpiricalMeanIsTrapezoidIntegral) {
  const SizeSpec s = SizeSpec::empirical({{1.0, 100.0}});
  // Single point: linear ramp from 100 at p=0 to 100 at p=1 → mean 100.
  EXPECT_DOUBLE_EQ(s.mean_bytes, 100.0);
}

class CdfFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("workload_cdf_" + std::to_string(::getpid()) + ".txt");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  void write(const char* text) { std::ofstream(path_) << text; }
  std::filesystem::path path_;
};

TEST_F(CdfFileTest, LoadsPointsWithCommentsAndBlanks) {
  write("# web mix\n10000 0.5\n\n100000 0.9  # tail\n1000000 1.0\n");
  SizeSpec s;
  std::string error;
  ASSERT_TRUE(SizeSpec::load_cdf_file(path_.string(), &s, &error)) << error;
  EXPECT_EQ(s.dist, SizeDist::kEmpirical);
  ASSERT_EQ(s.cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(s.cdf[0].first, 0.5);
  EXPECT_DOUBLE_EQ(s.cdf[0].second, 10000.0);
  EXPECT_DOUBLE_EQ(s.cdf[2].first, 1.0);
}

TEST_F(CdfFileTest, ClosesAnOpenTail) {
  write("1000 0.5\n5000 0.9\n");
  SizeSpec s;
  std::string error;
  ASSERT_TRUE(SizeSpec::load_cdf_file(path_.string(), &s, &error)) << error;
  EXPECT_DOUBLE_EQ(s.cdf.back().first, 1.0);
}

TEST_F(CdfFileTest, RejectsDecreasingProbability) {
  write("1000 0.9\n5000 0.5\n");
  SizeSpec s;
  std::string error;
  EXPECT_FALSE(SizeSpec::load_cdf_file(path_.string(), &s, &error));
  EXPECT_NE(error.find("nondecreasing"), std::string::npos);
}

TEST_F(CdfFileTest, RejectsOutOfRangeProbability) {
  write("1000 1.5\n");
  SizeSpec s;
  std::string error;
  EXPECT_FALSE(SizeSpec::load_cdf_file(path_.string(), &s, &error));
}

TEST_F(CdfFileTest, RejectsMissingFileAndEmptyFile) {
  SizeSpec s;
  std::string error;
  EXPECT_FALSE(SizeSpec::load_cdf_file("/nonexistent/cdf.txt", &s, &error));
  write("# only comments\n");
  EXPECT_FALSE(SizeSpec::load_cdf_file(path_.string(), &s, &error));
}

TEST(Workload, DefaultIsPaperWorkload) {
  EXPECT_TRUE(WorkloadSpec{}.is_paper_default());
  EXPECT_TRUE(WorkloadSpec::paper().is_paper_default());
  EXPECT_EQ(WorkloadSpec{}.signature(), "");
  EXPECT_FALSE(WorkloadSpec::mice_elephants().is_paper_default());
}

TEST(Workload, PresetsResolveByName) {
  for (const std::string& name : WorkloadSpec::preset_names()) {
    WorkloadSpec spec;
    EXPECT_TRUE(WorkloadSpec::from_name(name, &spec)) << name;
  }
  WorkloadSpec spec;
  EXPECT_FALSE(WorkloadSpec::from_name("nope", &spec));
}

TEST(Workload, PresetShapes) {
  const WorkloadSpec mice = WorkloadSpec::mice_elephants();
  ASSERT_EQ(mice.classes.size(), 2u);
  EXPECT_EQ(mice.classes[0].kind, ClassKind::kElephant);
  EXPECT_TRUE(mice.classes[0].cca_from_pair);
  EXPECT_EQ(mice.classes[1].kind, ClassKind::kFinite);
  EXPECT_GT(mice.classes[1].count, 0u);

  const WorkloadSpec web = WorkloadSpec::poisson_web();
  ASSERT_EQ(web.classes.size(), 2u);
  EXPECT_EQ(web.classes[1].arrival, Arrival::kPoisson);
  EXPECT_GT(web.classes[1].arrival_rate_hz, 0.0);

  const WorkloadSpec onoff = WorkloadSpec::onoff_bursts();
  ASSERT_EQ(onoff.classes.size(), 2u);
  EXPECT_EQ(onoff.classes[1].kind, ClassKind::kOnOff);
}

TEST(Workload, SignaturesDistinguishPresets) {
  std::set<std::string> sigs;
  for (const std::string& name : WorkloadSpec::preset_names()) {
    WorkloadSpec spec;
    ASSERT_TRUE(WorkloadSpec::from_name(name, &spec));
    sigs.insert(spec.signature());
  }
  EXPECT_EQ(sigs.size(), WorkloadSpec::preset_names().size());
}

TEST(Workload, SignatureTracksEveryKnob) {
  WorkloadSpec a = WorkloadSpec::mice_elephants();
  WorkloadSpec b = a;
  b.classes[1].count += 1;
  EXPECT_NE(a.signature(), b.signature());
  b = a;
  b.classes[1].size.mean_bytes *= 2;
  EXPECT_NE(a.signature(), b.signature());
  b = a;
  b.classes[1].start_window = b.classes[1].start_window * 2;
  EXPECT_NE(a.signature(), b.signature());
  b = a;
  b.classes[1].cca = cca::CcaKind::kReno;
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Workload, EmpiricalSignatureHashesThePointTable) {
  const SizeSpec a = SizeSpec::empirical({{0.5, 1000.0}, {1.0, 5000.0}});
  const SizeSpec b = SizeSpec::empirical({{0.5, 1000.0}, {1.0, 5001.0}});
  EXPECT_NE(a.signature(), b.signature());
  const SizeSpec c = SizeSpec::empirical({{0.5, 1000.0}, {1.0, 5000.0}});
  EXPECT_EQ(a.signature(), c.signature());
  // A journal key that `--resume` matches: the exact text is pinned.
  EXPECT_EQ(a.signature(), "emp2:919f3f85bf80480d");
  EXPECT_EQ(SizeSpec::empirical({{0.1, 1460.0}, {0.6, 64e3}, {0.95, 1.5e6}, {1.0, 2.5e7}})
                .signature(),
            "emp4:e7506ec042e7b13e");
}

TEST(Workload, ToStringCoversAllEnumerators) {
  EXPECT_STREQ(to_string(ClassKind::kElephant), "elephant");
  EXPECT_STREQ(to_string(ClassKind::kFinite), "finite");
  EXPECT_STREQ(to_string(ClassKind::kOnOff), "onoff");
  EXPECT_STREQ(to_string(Arrival::kStagger), "stagger");
  EXPECT_STREQ(to_string(Arrival::kPoisson), "poisson");
  EXPECT_STREQ(to_string(SizeDist::kFixed), "fixed");
  EXPECT_STREQ(to_string(SizeDist::kPareto), "pareto");
  EXPECT_STREQ(to_string(SizeDist::kLognormal), "lognormal");
  EXPECT_STREQ(to_string(SizeDist::kEmpirical), "empirical");
}

}  // namespace
}  // namespace elephant::workload
