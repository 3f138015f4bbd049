#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"

namespace elephant::obs {
namespace {

TEST(MetricsRegistry, FindOrCreateReturnsStableIdentity) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("sim.events");
  Counter& c2 = reg.counter("sim.events");
  EXPECT_EQ(&c1, &c2);
  Gauge& g1 = reg.gauge("sim.heap_depth");
  Gauge& g2 = reg.gauge("sim.heap_depth");
  EXPECT_EQ(&g1, &g2);
  LogLinHistogram& h1 = reg.histogram("queue.sojourn_s");
  LogLinHistogram& h2 = reg.histogram("queue.sojourn_s");
  EXPECT_EQ(&h1, &h2);

  // References stay valid after further registrations (node stability).
  for (int i = 0; i < 100; ++i) {
    (void)reg.counter("filler." + std::to_string(i));
  }
  c1.add(7);
  EXPECT_EQ(reg.counter("sim.events").value(), 7u);
}

TEST(MetricsRegistry, NamespacesAreIndependent) {
  MetricsRegistry reg;
  reg.counter("x").add(1);
  reg.gauge("x").set(2.5);
  reg.histogram("x").record(3.0);
  EXPECT_EQ(reg.counter("x").value(), 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("x").value(), 2.5);
  EXPECT_EQ(reg.histogram("x").count(), 1u);
}

TEST(MetricsRegistry, CounterIsSafeUnderConcurrentWriters) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000u);
}

TEST(MetricsRegistry, MergeFromAddsCountersOverwritesGaugesMergesHistograms) {
  MetricsRegistry dst;
  dst.counter("sim.events").add(10);
  dst.gauge("tcp.cwnd_segments").set(4.0);
  dst.histogram("tcp.srtt_s").record(0.010);

  MetricsRegistry src;
  src.counter("sim.events").add(5);
  src.counter("runs.completed").add(1);  // new name appears in dst
  src.gauge("tcp.cwnd_segments").set(9.0);
  src.histogram("tcp.srtt_s").record(0.030);

  dst.merge_from(src);
  EXPECT_EQ(dst.counter("sim.events").value(), 15u);
  EXPECT_EQ(dst.counter("runs.completed").value(), 1u);
  EXPECT_DOUBLE_EQ(dst.gauge("tcp.cwnd_segments").value(), 9.0);
  EXPECT_EQ(dst.histogram("tcp.srtt_s").count(), 2u);
  EXPECT_DOUBLE_EQ(dst.histogram("tcp.srtt_s").min(), 0.010);
  EXPECT_DOUBLE_EQ(dst.histogram("tcp.srtt_s").max(), 0.030);
  // Source is untouched.
  EXPECT_EQ(src.counter("sim.events").value(), 5u);
}

TEST(ScopedTimer, RecordsOneSampleAndNullIsInert) {
  LogLinHistogram h;
  {
    ScopedTimer t(&h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.min(), 0.0);
  {
    ScopedTimer t(nullptr);  // must not crash or record anywhere
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(Export, JsonSnapshotHasAllSectionsAndOmitsHistogramsOnRequest) {
  MetricsRegistry reg;
  reg.counter("sim.events").add(42);
  reg.gauge("sim.sim_s_per_wall_s").set(123.5);
  reg.histogram("sweep.cell_wall_s").record(1.5);

  std::string full;
  append_json(reg, &full, /*include_histograms=*/true);
  EXPECT_EQ(full.front(), '{');
  EXPECT_EQ(full.back(), '}');
  EXPECT_NE(full.find("\"counters\":{\"sim.events\":42}"), std::string::npos);
  EXPECT_NE(full.find("\"sim.sim_s_per_wall_s\":123.5"), std::string::npos);
  EXPECT_NE(full.find("\"sweep.cell_wall_s\":{\"count\":1"), std::string::npos);

  std::string lean;
  append_json(reg, &lean, /*include_histograms=*/false);
  EXPECT_EQ(lean.find("histograms"), std::string::npos);
  EXPECT_NE(lean.find("\"counters\""), std::string::npos);
}

TEST(Export, JsonEscapingHandlesQuotesBackslashesAndControls) {
  std::string out;
  append_json_escaped("a\"b\\c\n\t\x01", &out);
  EXPECT_EQ(out, "a\\\"b\\\\c\\n\\t\\u0001");
}

TEST(Export, EmptyRegistrySnapshotsAreWellFormed) {
  MetricsRegistry reg;
  std::string json;
  append_json(reg, &json);
  EXPECT_EQ(json, "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

}  // namespace
}  // namespace elephant::obs
