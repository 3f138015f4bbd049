#include "exp/report.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "exp/manifest.hpp"
#include "exp/status.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace elephant::exp {
namespace {

namespace fs = std::filesystem;

ManifestEntry claim(const std::string& id, const std::string& worker) {
  ManifestEntry e;
  e.id = id;
  e.status = RunStatus::kClaimed;
  e.worker = worker;
  e.lease_until_unix_s = 1e12;
  return e;
}

ManifestEntry done(const std::string& id, double wall_s, RunStatus status = RunStatus::kOk) {
  ManifestEntry e;
  e.id = id;
  e.status = status;
  e.result.repetitions = 1;
  e.result.jain2 = 0.9;
  e.result.utilization = 0.8;
  e.wall_s = wall_s;
  if (!succeeded(status)) e.error = "boom";
  return e;
}

std::string journal_line(const obs::MetricsRegistry& reg, const std::string& worker,
                         double elapsed_s) {
  std::string line = "{\"elapsed_s\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", elapsed_s);
  line += buf;
  line += ",\"final\":true,\"worker\":\"" + worker + "\",";
  std::string reg_json;
  obs::append_json(reg, &reg_json);
  line.append(reg_json, 1, reg_json.size() - 2);
  line += "}";
  return line;
}

/// A synthetic two-worker sweep directory: manifest with claims, completions,
/// a lease steal, and a failure; one metrics journal per worker.
class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("elephant_report_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    manifest_ = dir_ / "manifest.jsonl";

    std::ofstream out(manifest_);
    // Cell A: claimed and completed by w1 (2 s, a mild 2-episode cell).
    out << SweepManifest::format_line(claim("cellA", "w1")) << "\n";
    ManifestEntry a = done("cellA", 2.0);
    a.result.episodes = 2;
    a.result.episode_worst_jain = 0.7;
    a.result.episode_victim = 1;
    a.result.episode_cause = "fault";
    out << SweepManifest::format_line(a) << "\n";
    // Cell B: claimed and completed by w2 (4 s, the worst episode cell).
    out << SweepManifest::format_line(claim("cellB", "w2")) << "\n";
    ManifestEntry b = done("cellB", 4.0);
    b.result.episodes = 1;
    b.result.episode_worst_jain = 0.4;
    b.result.episode_victim = 2;
    b.result.episode_cause = "loss-burst";
    out << SweepManifest::format_line(b) << "\n";
    // Cell C: claimed by w1, stolen and completed by w2 (1 s).
    out << SweepManifest::format_line(claim("cellC", "w1")) << "\n";
    out << SweepManifest::format_line(claim("cellC", "w2")) << "\n";
    out << SweepManifest::format_line(done("cellC", 1.0)) << "\n";
    // Cell D: failed without any claim line (a pre-lease journal).
    out << SweepManifest::format_line(done("cellD", 0.5, RunStatus::kFailed)) << "\n";
    out << "{\"torn";  // crashed writer's tail must be skipped
    out.close();

    obs::MetricsRegistry r1;
    r1.histogram("sweep.cell_wall_s").record(2.0);
    r1.histogram("prof.cell_run_s").record(1.5);
    std::ofstream(dir_ / "metrics-w1.jsonl") << journal_line(r1, "w1", 10.0) << "\n";

    obs::MetricsRegistry r2;
    r2.histogram("sweep.cell_wall_s").record(4.0);
    r2.histogram("sweep.cell_wall_s").record(1.0);
    std::ofstream(dir_ / "metrics-w2.jsonl") << journal_line(r2, "w2", 10.0) << "\n";
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  const ReportWorker* worker(const SweepSummary& s, const std::string& id) {
    for (const ReportWorker& w : s.workers) {
      if (w.id == id) return &w;
    }
    return nullptr;
  }

  fs::path dir_;
  fs::path manifest_;
};

TEST_F(ReportTest, MergesManifestHistoryAndJournals) {
  ReportOptions opt;
  opt.manifest_path = manifest_;  // metrics_paths empty → auto-discover
  SweepSummary s;
  std::string error;
  ASSERT_TRUE(build_report(opt, &s, &error)) << error;

  EXPECT_EQ(s.cells_total, 4u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.claims, 4u);
  EXPECT_EQ(s.steals, 1u);
  EXPECT_DOUBLE_EQ(s.wall_s_total, 7.0);

  // Per-worker cell counts must sum to the manifest's completed-cell count.
  std::size_t attributed = 0;
  for (const ReportWorker& w : s.workers) attributed += w.cells;
  EXPECT_EQ(attributed, s.completed);

  const ReportWorker* w1 = worker(s, "w1");
  const ReportWorker* w2 = worker(s, "w2");
  ASSERT_NE(w1, nullptr);
  ASSERT_NE(w2, nullptr);
  EXPECT_EQ(w1->cells, 1u);
  EXPECT_EQ(w1->claims, 2u);
  EXPECT_EQ(w1->steals, 0u);
  EXPECT_DOUBLE_EQ(w1->wall_s, 2.0);
  EXPECT_DOUBLE_EQ(w1->elapsed_s, 10.0);
  EXPECT_NEAR(w1->utilization, 0.2, 1e-12);
  EXPECT_EQ(w2->cells, 2u);  // cellB plus the stolen cellC
  EXPECT_EQ(w2->steals, 1u);
  EXPECT_DOUBLE_EQ(w2->wall_s, 5.0);

  // The per-worker wall-time histograms folded across both journals.
  bool saw_cell_wall = false;
  for (const ReportPhase& p : s.phases) {
    if (p.name == "sweep.cell_wall_s") {
      saw_cell_wall = true;
      EXPECT_EQ(p.count, 3u);
      EXPECT_DOUBLE_EQ(p.total_s, 7.0);
    }
  }
  EXPECT_TRUE(saw_cell_wall);

  // Rankings: slowest by wall time desc; episodes by worst Jain asc.
  ASSERT_GE(s.slowest.size(), 2u);
  EXPECT_EQ(s.slowest[0].id, "cellB");
  EXPECT_EQ(s.slowest[0].worker, "w2");
  ASSERT_EQ(s.episode_cells.size(), 2u);
  EXPECT_EQ(s.episode_cells[0].id, "cellB");
  EXPECT_EQ(s.episode_cells[0].cause, "loss-burst");
  EXPECT_EQ(s.episode_cells[0].victim, 2u);
  EXPECT_EQ(s.episode_cells[1].id, "cellA");
}

TEST_F(ReportTest, RendersSchemaTaggedJsonAndMarkdown) {
  ReportOptions opt;
  opt.manifest_path = manifest_;
  SweepSummary s;
  std::string error;
  ASSERT_TRUE(build_report(opt, &s, &error)) << error;

  const std::string json = render_report_json(s);
  EXPECT_EQ(json.find("{\"schema\":\"elephant-report-v2\""), 0u);
  EXPECT_EQ(json.find("\"cache\""), std::string::npos);  // the journal is the store
  EXPECT_NE(json.find("\"completed\":3"), std::string::npos);
  EXPECT_NE(json.find("\"steals\":1"), std::string::npos);
  EXPECT_NE(json.find("\"episode_cells\":[{\"id\":\"cellB\""), std::string::npos);

  const std::string md = render_report_markdown(s);
  EXPECT_NE(md.find("## Workers"), std::string::npos);
  EXPECT_NE(md.find("| w2 | 2 |"), std::string::npos);
  EXPECT_NE(md.find("loss-burst"), std::string::npos);
}

TEST_F(ReportTest, TopNTruncatesRankings) {
  ReportOptions opt;
  opt.manifest_path = manifest_;
  opt.top_n = 1;
  SweepSummary s;
  std::string error;
  ASSERT_TRUE(build_report(opt, &s, &error)) << error;
  EXPECT_EQ(s.slowest.size(), 1u);
  EXPECT_EQ(s.episode_cells.size(), 1u);
  EXPECT_EQ(s.slowest[0].id, "cellB");
}

TEST_F(ReportTest, ExplicitJournalListSkipsDiscovery) {
  ReportOptions opt;
  opt.manifest_path = manifest_;
  opt.metrics_paths = {dir_ / "metrics-w1.jsonl"};
  SweepSummary s;
  std::string error;
  ASSERT_TRUE(build_report(opt, &s, &error)) << error;
  // Only w1's journal was read: its one cell_wall_s sample, not w2's two.
  ASSERT_EQ(s.phases.size(), 2u);
  for (const ReportPhase& p : s.phases) EXPECT_EQ(p.count, 1u) << p.name;
  const ReportWorker* w2 = worker(s, "w2");
  ASSERT_NE(w2, nullptr);
  EXPECT_DOUBLE_EQ(w2->elapsed_s, 0.0);  // no journal read for w2
}

TEST(ReportErrorTest, MissingOrEmptyManifestFails) {
  ReportOptions opt;
  opt.manifest_path = "/nonexistent/manifest.jsonl";
  SweepSummary s;
  std::string error;
  EXPECT_FALSE(build_report(opt, &s, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  const auto empty = fs::temp_directory_path() /
                     ("elephant_report_empty_" + std::to_string(::getpid()) + ".jsonl");
  { std::ofstream out(empty); }
  opt.manifest_path = empty;
  error.clear();
  EXPECT_FALSE(build_report(opt, &s, &error));
  EXPECT_NE(error.find("no parseable"), std::string::npos);
  fs::remove(empty);
}

}  // namespace
}  // namespace elephant::exp
