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

std::string journal_line(const obs::MetricsRegistry& reg, double elapsed_s) {
  std::string line = "{\"elapsed_s\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", elapsed_s);
  line += buf;
  line += ",\"final\":true,";
  std::string reg_json;
  obs::append_json(reg, &reg_json);
  line.append(reg_json, 1, reg_json.size() - 2);
  line += "}";
  return line;
}

/// A synthetic sweep directory: manifest with completions, a re-run that
/// supersedes a failure, a failure, an older build's claim line and a torn
/// tail; the heartbeat journal next to it, and a second metrics file.
class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("elephant_report_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    manifest_ = dir_ / "manifest.jsonl";

    std::ofstream out(manifest_);
    // Cell A: 2 s, a mild 2-episode cell.
    ManifestEntry a = done("cellA", 2.0);
    a.result.episodes = 2;
    a.result.episode_worst_jain = 0.7;
    a.result.episode_victim = 1;
    a.result.episode_cause = "fault";
    out << SweepManifest::format_line(a) << "\n";
    // Cell B: 4 s, the worst episode cell, after an older build's claim line
    // (no longer a status, so skipped).
    out << R"({"i":1,"id":"cellB","status":"claimed","attempts":0,"reps":0,)"
           R"("s1_bps":0,"s2_bps":0,"jain2":0,"util":0,"retx":0,"rtos":0,)"
           R"("worker":"w2","lease_until":1700000060.500,"error":""})"
        << "\n";
    ManifestEntry b = done("cellB", 4.0);
    b.result.episodes = 1;
    b.result.episode_worst_jain = 0.4;
    b.result.episode_victim = 2;
    b.result.episode_cause = "loss-burst";
    out << SweepManifest::format_line(b) << "\n";
    // Cell C: failed, then completed by a resumed sweep (1 s).
    out << SweepManifest::format_line(done("cellC", 0.25, RunStatus::kFailed)) << "\n";
    out << SweepManifest::format_line(done("cellC", 1.0)) << "\n";
    // Cell D: failed.
    out << SweepManifest::format_line(done("cellD", 0.5, RunStatus::kFailed)) << "\n";
    out << "{\"torn";  // crashed writer's tail must be skipped
    out.close();

    obs::MetricsRegistry sweep;
    sweep.histogram("sweep.cell_wall_s").record(2.0);
    sweep.histogram("sweep.cell_wall_s").record(4.0);
    sweep.histogram("sweep.cell_wall_s").record(1.0);
    sweep.histogram("prof.cell_run_s").record(1.5);
    std::ofstream(dir_ / "metrics.jsonl") << journal_line(sweep, 10.0) << "\n";

    obs::MetricsRegistry other;
    other.histogram("sweep.cell_wall_s").record(2.0);
    std::ofstream(dir_ / "other.jsonl") << journal_line(other, 3.0) << "\n";
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
  fs::path manifest_;
};

TEST_F(ReportTest, MergesManifestHistoryAndJournals) {
  ReportOptions opt;
  opt.manifest_path = manifest_;  // metrics_path empty → metrics.jsonl beside it
  SweepSummary s;
  std::string error;
  ASSERT_TRUE(build_report(opt, &s, &error)) << error;

  EXPECT_EQ(s.cells_total, 4u);
  EXPECT_EQ(s.completed, 3u);  // cellC's later success supersedes its failure
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed + s.failed, s.cells_total);
  EXPECT_DOUBLE_EQ(s.wall_s_total, 7.0);

  // The phase histograms of the heartbeat journal next to the manifest.
  ASSERT_EQ(s.phases.size(), 2u);
  EXPECT_EQ(s.phases[0].name, "prof.cell_run_s");
  EXPECT_EQ(s.phases[1].name, "sweep.cell_wall_s");
  EXPECT_EQ(s.phases[1].count, 3u);
  EXPECT_DOUBLE_EQ(s.phases[1].total_s, 7.0);

  // Rankings: slowest by wall time desc; episodes by worst Jain asc.
  ASSERT_EQ(s.slowest.size(), 4u);
  EXPECT_EQ(s.slowest[0].id, "cellB");
  EXPECT_EQ(s.slowest[0].status, "ok");
  EXPECT_EQ(s.slowest[2].id, "cellC");
  EXPECT_DOUBLE_EQ(s.slowest[2].wall_s, 1.0);
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
  EXPECT_EQ(json.find("{\"schema\":\"elephant-report-v3\""), 0u);
  EXPECT_EQ(json.find("\"cache\""), std::string::npos);  // the journal is the store
  EXPECT_EQ(json.find("\"worker"), std::string::npos);
  EXPECT_NE(json.find("\"cells\":{\"total\":4,\"completed\":3,\"failed\":1,"),
            std::string::npos);
  EXPECT_NE(json.find("\"episode_cells\":[{\"id\":\"cellB\""), std::string::npos);

  const std::string md = render_report_markdown(s);
  EXPECT_EQ(md.find("Workers"), std::string::npos);
  EXPECT_NE(md.find("| `cellB` | ok | 4.00 |"), std::string::npos);
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
  opt.metrics_path = dir_ / "other.jsonl";
  SweepSummary s;
  std::string error;
  ASSERT_TRUE(build_report(opt, &s, &error)) << error;
  // Only the named journal was read: its one sample, not metrics.jsonl's three.
  ASSERT_EQ(s.phases.size(), 1u);
  EXPECT_EQ(s.phases[0].name, "sweep.cell_wall_s");
  EXPECT_EQ(s.phases[0].count, 1u);

  // A missing journal leaves the phases empty; the manifest still reports.
  opt.metrics_path = dir_ / "missing.jsonl";
  ASSERT_TRUE(build_report(opt, &s, &error)) << error;
  EXPECT_TRUE(s.phases.empty());
  EXPECT_EQ(s.completed, 3u);
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
