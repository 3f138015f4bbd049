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

void expect_histograms_equal(const LogLinHistogram& a, const LogLinHistogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.sum(), b.sum());
  EXPECT_DOUBLE_EQ(a.min(), b.min());
  EXPECT_DOUBLE_EQ(a.max(), b.max());
  EXPECT_EQ(buckets_of(a), buckets_of(b));
}

void expect_registries_equal(const MetricsRegistry& a, const MetricsRegistry& b) {
  a.for_each_counter([&](const std::string& name, const Counter& c) {
    EXPECT_EQ(c.value(), const_cast<MetricsRegistry&>(b).counter(name).value())
        << "counter " << name;
  });
  a.for_each_gauge([&](const std::string& name, const Gauge& g) {
    EXPECT_DOUBLE_EQ(g.value(), const_cast<MetricsRegistry&>(b).gauge(name).value())
        << "gauge " << name;
  });
  a.for_each_histogram([&](const std::string& name, const LogLinHistogram& h) {
    SCOPED_TRACE("histogram " + name);
    expect_histograms_equal(h, const_cast<MetricsRegistry&>(b).histogram(name));
  });
}

MetricsRegistry& fill(MetricsRegistry& reg, int scale) {
  reg.counter("sweep.cache_hits").add(10u * scale);
  reg.counter("sweep.cache_misses").add(3u * scale);
  reg.gauge("sched.heap_depth").set(42.0 * scale);
  LogLinHistogram& h = reg.histogram("prof.cell_run_s");
  for (int i = 1; i <= 50; ++i) h.record(scale * 1e-4 * i);
  h.record(scale * 123.456);  // far bucket: exercises the sparse dump
  reg.histogram("sweep.cell_wall_s").record(0.25 * scale);
  return reg;
}

TEST(JournalTest, HeartbeatLineRoundTripsRegistryExactly) {
  MetricsRegistry reg;
  fill(reg, 1);
  const std::string line = compose_line(reg, 12.5, true);

  JournalSnapshot snap;
  ASSERT_TRUE(parse_journal_line(line, &snap));
  EXPECT_DOUBLE_EQ(snap.elapsed_s, 12.5);
  EXPECT_TRUE(snap.final_snapshot);
  EXPECT_DOUBLE_EQ(snap.extra.at("cells_done"), 3.0);
  EXPECT_EQ(snap.counters.at("sweep.cache_hits"), 10u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sched.heap_depth"), 42.0);

  MetricsRegistry rebuilt;
  merge_into(snap, &rebuilt);
  expect_registries_equal(reg, rebuilt);
}

TEST(JournalTest, JournalMergeMatchesInProcessMergeFrom) {
  // Aggregating registries through their journals must equal aggregating
  // them in-process: merge_into keeps merge_from's semantics.
  MetricsRegistry r1;
  MetricsRegistry r2;
  fill(r1, 1);
  fill(r2, 7);
  r2.counter("sweep.cells_failed").add(2);  // metric only r2 has

  MetricsRegistry direct;
  direct.merge_from(r1);
  direct.merge_from(r2);

  MetricsRegistry via_journal;
  for (const MetricsRegistry* src : {&r1, &r2}) {
    JournalSnapshot snap;
    ASSERT_TRUE(parse_journal_line(compose_line(*src, 1.0, true), &snap));
    merge_into(snap, &via_journal);
  }
  expect_registries_equal(direct, via_journal);
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
