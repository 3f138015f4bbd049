#include "obs/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace elephant::obs {
namespace {

/// Compose one heartbeat-shaped journal line exactly the way
/// obs::Heartbeat::emit does: caller status fields, then the registry JSON
/// spliced in minus its outer braces.
std::string compose_line(const MetricsRegistry& reg, double elapsed_s, bool final) {
  char head[128];
  std::snprintf(head, sizeof(head), "{\"elapsed_s\":%.3f,\"final\":%s,", elapsed_s,
                final ? "true" : "false");
  std::string line = head;
  line += "\"cells_done\":3,";
  std::string reg_json;
  append_json(reg, &reg_json);
  line.append(reg_json, 1, reg_json.size() - 2);
  line += "}";
  return line;
}

std::map<std::size_t, std::uint64_t> buckets_of(const LogLinHistogram& h) {
  std::map<std::size_t, std::uint64_t> out;
  h.for_each_bucket([&](std::size_t index, std::uint64_t n) { out[index] = n; });
  return out;
}

MetricsRegistry& fill(MetricsRegistry& reg) {
  reg.counter("sweep.cache_hits").add(10u);
  reg.counter("sweep.cache_misses").add(3u);
  reg.gauge("sched.heap_depth").set(42.0);
  LogLinHistogram& h = reg.histogram("prof.cell_run_s");
  for (int i = 1; i <= 50; ++i) h.record(1e-4 * i);
  h.record(123.456);  // far bucket: exercises the sparse dump
  reg.histogram("sweep.cell_wall_s").record(0.25);
  return reg;
}

TEST(JournalTest, HeartbeatLineRoundTripsRegistryExactly) {
  MetricsRegistry reg;
  fill(reg);
  const std::string line = compose_line(reg, 12.5, true);

  JournalSnapshot snap;
  ASSERT_TRUE(parse_journal_line(line, &snap));
  EXPECT_DOUBLE_EQ(snap.elapsed_s, 12.5);
  EXPECT_TRUE(snap.final_snapshot);
  EXPECT_DOUBLE_EQ(snap.extra.at("cells_done"), 3.0);

  // Every metric of the registry comes back under its name with its exact
  // value; histograms bucket for bucket.
  std::size_t counters = 0;
  reg.for_each_counter([&](const std::string& name, const Counter& c) {
    ++counters;
    ASSERT_EQ(snap.counters.count(name), 1u) << "counter " << name;
    EXPECT_EQ(snap.counters.at(name), c.value()) << "counter " << name;
  });
  std::size_t gauges = 0;
  reg.for_each_gauge([&](const std::string& name, const Gauge& g) {
    ++gauges;
    ASSERT_EQ(snap.gauges.count(name), 1u) << "gauge " << name;
    EXPECT_DOUBLE_EQ(snap.gauges.at(name), g.value()) << "gauge " << name;
  });
  std::size_t histograms = 0;
  reg.for_each_histogram([&](const std::string& name, const LogLinHistogram& h) {
    ++histograms;
    SCOPED_TRACE("histogram " + name);
    ASSERT_EQ(snap.histograms.count(name), 1u);
    const LogLinHistogram& got = snap.histograms.at(name);
    EXPECT_EQ(got.count(), h.count());
    EXPECT_DOUBLE_EQ(got.sum(), h.sum());
    EXPECT_DOUBLE_EQ(got.min(), h.min());
    EXPECT_DOUBLE_EQ(got.max(), h.max());
    EXPECT_EQ(buckets_of(got), buckets_of(h));
  });
  EXPECT_EQ(snap.counters.size(), counters);
  EXPECT_EQ(snap.gauges.size(), gauges);
  EXPECT_EQ(snap.histograms.size(), histograms);
  EXPECT_EQ(counters, 2u);
  EXPECT_EQ(gauges, 1u);
  EXPECT_EQ(histograms, 2u);
}

TEST(JournalTest, ReadFinalSnapshotTakesLastParseableLineAndSkipsTornTail) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("elephant_journal_" + std::to_string(::getpid()) + ".jsonl");
  {
    MetricsRegistry tick1;
    tick1.counter("sweep.cache_hits").add(1);
    MetricsRegistry tick2;
    tick2.counter("sweep.cache_hits").add(5);
    std::ofstream out(path);
    out << compose_line(tick1, 1.0, false) << "\n";
    out << compose_line(tick2, 2.0, true) << "\n";
    out << "{\"elapsed_s\":3.0,\"cou";  // torn tail from a crashed sweep
  }

  JournalSnapshot snap;
  std::string error;
  ASSERT_TRUE(read_final_snapshot(path, &snap, &error)) << error;
  EXPECT_DOUBLE_EQ(snap.elapsed_s, 2.0);
  EXPECT_TRUE(snap.final_snapshot);
  EXPECT_EQ(snap.counters.at("sweep.cache_hits"), 5u);
  std::filesystem::remove(path);
}

TEST(JournalTest, ReadFinalSnapshotReportsMissingAndEmptyFiles) {
  JournalSnapshot snap;
  std::string error;
  EXPECT_FALSE(read_final_snapshot("/nonexistent/metrics.jsonl", &snap, &error));
  EXPECT_FALSE(error.empty());

  const auto path = std::filesystem::temp_directory_path() /
                    ("elephant_journal_empty_" + std::to_string(::getpid()) + ".jsonl");
  { std::ofstream out(path); }
  error.clear();
  EXPECT_FALSE(read_final_snapshot(path, &snap, &error));
  EXPECT_NE(error.find("no parseable"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(JournalTest, MalformedLinesAreRejected) {
  JournalSnapshot snap;
  EXPECT_FALSE(parse_journal_line("", &snap));
  EXPECT_FALSE(parse_journal_line("not json", &snap));
  EXPECT_FALSE(parse_journal_line("{\"elapsed_s\":}", &snap));
  EXPECT_FALSE(parse_journal_line("{\"final\":maybe}", &snap));
  EXPECT_TRUE(parse_journal_line("{}", &snap));
}

}  // namespace
}  // namespace elephant::obs
