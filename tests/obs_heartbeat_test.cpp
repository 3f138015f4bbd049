#include "obs/heartbeat.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/sweep.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace elephant::obs {
namespace {

class HeartbeatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("elephant_heartbeat_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::filesystem::path jsonl() const { return dir_ / "metrics.jsonl"; }

  static std::vector<std::string> read_lines(const std::filesystem::path& p) {
    std::ifstream in(p);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    return lines;
  }

  std::filesystem::path dir_;
};

TEST_F(HeartbeatTest, TicksAndAppendsOneJsonObjectPerLine) {
  MetricsRegistry reg;
  reg.counter("sim.events").add(123);

  Heartbeat::Options opts;
  opts.interval_s = 0.02;
  opts.jsonl_path = jsonl();
  opts.console = nullptr;
  Heartbeat hb(reg, opts);
  hb.start();
  while (hb.ticks() < 2) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  hb.stop();

  EXPECT_GE(hb.ticks(), 3u);  // ≥2 live ticks + the final snapshot
  const auto lines = read_lines(jsonl());
  ASSERT_GE(lines.size(), 3u);
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"elapsed_s\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"sim.events\":123"), std::string::npos) << line;
  }
  // Exactly the last line is the final snapshot.
  EXPECT_NE(lines.back().find("\"final\":true"), std::string::npos);
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"final\":false"), std::string::npos) << lines[i];
  }
}

TEST_F(HeartbeatTest, HistogramsOnlyInFinalSnapshotByDefault) {
  MetricsRegistry reg;
  reg.histogram("tcp.srtt_s").record(0.02);

  Heartbeat::Options opts;
  opts.interval_s = 0.02;
  opts.jsonl_path = jsonl();
  opts.console = nullptr;
  Heartbeat hb(reg, opts);
  hb.start();
  while (hb.ticks() < 1) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  hb.stop();

  const auto lines = read_lines(jsonl());
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.front().find("histograms"), std::string::npos);
  EXPECT_NE(lines.back().find("\"histograms\":{\"tcp.srtt_s\":{\"count\":1"),
            std::string::npos);
}

TEST_F(HeartbeatTest, StatusFieldsAreInjectedIntoEveryLine) {
  MetricsRegistry reg;
  Heartbeat::Options opts;
  opts.interval_s = 0.01;
  opts.jsonl_path = jsonl();
  opts.console = nullptr;
  Heartbeat hb(reg, opts, [](std::string* fields, std::string* line) {
    *fields += "\"cells_done\":7,";
    *line = "custom progress";
  });
  hb.start();
  while (hb.ticks() < 1) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  hb.stop();

  const auto lines = read_lines(jsonl());
  ASSERT_FALSE(lines.empty());
  for (const auto& line : lines) {
    EXPECT_NE(line.find("\"cells_done\":7"), std::string::npos) << line;
  }
}

TEST_F(HeartbeatTest, StopIsIdempotentAndEmitsExactlyOneFinalSnapshot) {
  MetricsRegistry reg;
  Heartbeat::Options opts;
  opts.interval_s = 60;  // never fires a live tick
  opts.jsonl_path = jsonl();
  opts.console = nullptr;
  Heartbeat hb(reg, opts);
  hb.start();
  hb.stop();
  hb.stop();
  EXPECT_EQ(hb.ticks(), 1u);
  EXPECT_EQ(read_lines(jsonl()).size(), 1u);
}

TEST_F(HeartbeatTest, ZeroAndNegativeIntervalsClampToDefault) {
  // A zero, negative, or NaN --stats-interval must not spin the emitter
  // thread (interval 0 would busy-write the journal); it falls back to the
  // documented 10 s default and warns once.
  MetricsRegistry reg;
  for (const double bad : {0.0, -3.0, std::nan("")}) {
    Heartbeat::Options opts;
    opts.interval_s = bad;
    opts.jsonl_path = jsonl();
    opts.console = nullptr;
    Heartbeat hb(reg, opts);
    EXPECT_DOUBLE_EQ(hb.effective_interval_s(), Heartbeat::kFallbackIntervalS)
        << "interval " << bad;
    hb.start();
    hb.stop();
    EXPECT_EQ(hb.ticks(), 1u) << "interval " << bad;  // only the final snapshot
  }
}

TEST_F(HeartbeatTest, SubMinimumIntervalClampsUpNormalIntervalUnchanged) {
  MetricsRegistry reg;
  Heartbeat::Options opts;
  opts.interval_s = 0.001;  // positive but below the 10 ms floor
  opts.console = nullptr;
  {
    Heartbeat hb(reg, opts);
    EXPECT_DOUBLE_EQ(hb.effective_interval_s(), Heartbeat::kMinIntervalS);
  }
  opts.interval_s = 2.5;
  {
    Heartbeat hb(reg, opts);
    EXPECT_DOUBLE_EQ(hb.effective_interval_s(), 2.5);
  }
}

// End-to-end: a self-profiling sweep fills the shared registry and writes the
// heartbeat journal to an explicit metrics_path.
TEST_F(HeartbeatTest, SweepPublishesProgressMetricsAndJournal) {
  std::vector<exp::ExperimentConfig> configs;
  for (int i = 0; i < 3; ++i) {
    auto cfg = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                  aqm::AqmKind::kFifo, 2.0, 100e6, 1);
    cfg.seed = 900 + static_cast<std::uint64_t>(i);
    configs.push_back(cfg);
  }

  MetricsRegistry reg;
  exp::SweepOptions opts;
  opts.threads = 2;
  opts.metrics = &reg;
  opts.stats_interval_s = 0.01;
  opts.metrics_path = jsonl();
  opts.manifest_path = dir_ / "runs.jsonl";
  const exp::SweepReport report = run_sweep_resilient(configs, opts);
  ASSERT_EQ(report.completed(), 3u);

  EXPECT_EQ(reg.counter("sweep.cells_done").value(), 3u);
  EXPECT_EQ(reg.counter("sweep.cells_failed").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("sweep.cells_total").value(), 3.0);
  EXPECT_GT(reg.counter("sim.events").value(), 0u);
  EXPECT_EQ(reg.histogram("sweep.cell_wall_s").count(), 3u);
  EXPECT_GT(reg.counter("queue.dequeued").value(), 0u);
  EXPECT_GT(reg.counter("tcp.acks_received").value(), 0u);

  const auto lines = read_lines(jsonl());
  ASSERT_FALSE(lines.empty());
  const std::string& last = lines.back();
  EXPECT_NE(last.find("\"final\":true"), std::string::npos);
  EXPECT_NE(last.find("\"cells_done\":3"), std::string::npos);
  EXPECT_NE(last.find("\"cells_total\":3"), std::string::npos);
  EXPECT_NE(last.find("\"sweep.cell_wall_s\""), std::string::npos);
}

// A resumed sweep counts served runs and cells in its progress, so the final
// heartbeat and the last on_result call both read total/total. At two seeds
// per cell, cell 0 is served wholly from the journal, cell 1 half (its first
// seed) and cell 2 not at all.
TEST_F(HeartbeatTest, ResumedSweepProgressReachesItsTotal) {
  std::vector<exp::ExperimentConfig> configs;
  for (int i = 0; i < 3; ++i) {
    auto cfg = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                  aqm::AqmKind::kFifo, 2.0, 100e6, 1);
    cfg.seed = 910 + static_cast<std::uint64_t>(i);
    configs.push_back(cfg);
  }
  exp::SweepOptions earlier;
  earlier.threads = 1;
  earlier.manifest_path = dir_ / "runs.jsonl";
  earlier.repetitions = 2;
  ASSERT_EQ(run_sweep_resilient({configs[0]}, earlier).completed(), 1u);
  earlier.repetitions = 1;  // seed stream 0 is the seed: cell 1's first run
  ASSERT_EQ(run_sweep_resilient({configs[1]}, earlier).completed(), 1u);

  MetricsRegistry reg;
  exp::SweepOptions opts;
  opts.threads = 1;
  opts.repetitions = 2;
  opts.resume = true;
  opts.metrics = &reg;
  opts.stats_interval_s = 0.01;
  opts.metrics_path = jsonl();
  opts.manifest_path = dir_ / "runs.jsonl";
  std::vector<std::pair<std::size_t, std::size_t>> progress;
  opts.on_result = [&](const exp::AveragedResult&, std::size_t done, std::size_t total) {
    progress.emplace_back(done, total);
  };
  const exp::SweepReport report = run_sweep_resilient(configs, opts);
  ASSERT_EQ(report.completed(), 3u);
  EXPECT_TRUE(report.records[0].resumed);
  EXPECT_FALSE(report.records[1].resumed);

  // Three runs served, three simulated, six in all.
  EXPECT_EQ(reg.counter("sweep.cells_resumed").value(), 3u);
  EXPECT_EQ(reg.counter("sweep.cells_done").value(), 6u);
  EXPECT_DOUBLE_EQ(reg.gauge("sweep.cells_total").value(), 6.0);
  EXPECT_EQ(reg.histogram("sweep.cell_wall_s").count(), 3u);
  const auto lines = read_lines(jsonl());
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"cells_done\":6,\"cells_total\":6,\"eta_s\":0.0,"),
            std::string::npos)
      << lines.back();

  // One call per cell, the wholly served one included; the last reads 3/3.
  ASSERT_EQ(progress.size(), 3u);
  for (std::size_t i = 0; i < progress.size(); ++i) {
    EXPECT_EQ(progress[i].first, i + 1);
    EXPECT_EQ(progress[i].second, 3u);
  }
}

// stats_interval_s alone must be enough: the sweep owns a private registry
// and still emits the journal.
TEST_F(HeartbeatTest, SweepOwnsRegistryWhenOnlyIntervalIsSet) {
  auto cfg = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                aqm::AqmKind::kFifo, 2.0, 100e6, 1);
  exp::SweepOptions opts;
  opts.threads = 1;
  opts.stats_interval_s = 0.01;
  opts.metrics_path = jsonl();
  opts.manifest_path = dir_ / "runs.jsonl";
  const exp::SweepReport report = run_sweep_resilient({cfg}, opts);
  ASSERT_EQ(report.completed(), 1u);

  const auto lines = read_lines(jsonl());
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"cells_done\":1"), std::string::npos);
  EXPECT_NE(lines.back().find("\"sim.events\":"), std::string::npos);
}

}  // namespace
}  // namespace elephant::obs
