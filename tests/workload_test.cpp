#include "workload/workload.hpp"

#include <gtest/gtest.h>

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

TEST(SizeSpec, SamplesAreAtLeastOneByte) {
  // A 1-byte mean puts the Pareto scale at 1/3 byte: about 80% of draws fall
  // below one byte and are clamped up to it.
  const SizeSpec tiny = SizeSpec::pareto(1.0, 1.5);
  sim::Rng rng(5);
  int ones = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t b = tiny.sample(rng);
    EXPECT_GE(b, 1u);
    ones += b == 1 ? 1 : 0;
  }
  EXPECT_GT(ones, 500);
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

// Class signatures are part of every mixed-workload run id, so resume
// matches journal lines on this exact text.
TEST(Workload, MiceElephantsSignatureLiteral) {
  EXPECT_EQ(WorkloadSpec::mice_elephants().signature(),
            "elephants:elephant,pair,n0,sd-1,stagger,o0,w0.5,r0+"
            "mice:finite,cubic,n40,sd-1,stagger,o2,w20,r0,par500000,1.5");
}

TEST(Workload, FiniteFixedClassSignatureLiteral) {
  // The many-flow benchmark's class: 100k fixed-size CUBIC flows over 1.6 s.
  TrafficClass tc;
  tc.name = "manyflow";
  tc.kind = ClassKind::kFinite;
  tc.cca = cca::CcaKind::kCubic;
  tc.count = 100'000;
  tc.start_window = sim::Time::seconds(1.6);
  tc.size = SizeSpec::fixed(6 * 8900.0);
  EXPECT_EQ(tc.signature(), "manyflow:finite,cubic,n100000,sd-1,stagger,o0,w1.6,r0,fix53400");
}

TEST(Workload, ToStringCoversAllEnumerators) {
  EXPECT_STREQ(to_string(ClassKind::kElephant), "elephant");
  EXPECT_STREQ(to_string(ClassKind::kFinite), "finite");
  EXPECT_STREQ(to_string(SizeDist::kFixed), "fixed");
  EXPECT_STREQ(to_string(SizeDist::kPareto), "pareto");
}

}  // namespace
}  // namespace elephant::workload
