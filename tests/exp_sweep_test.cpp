#include "exp/sweep.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "exp/claims.hpp"
#include "exp/manifest.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"

namespace elephant::exp {
namespace {

std::vector<ExperimentConfig> tiny_matrix() {
  auto m = make_matrix({{cca::CcaKind::kCubic, cca::CcaKind::kCubic},
                        {cca::CcaKind::kReno, cca::CcaKind::kCubic}},
                       {aqm::AqmKind::kFifo}, {1.0}, {100e6});
  for (auto& cfg : m) cfg.duration = sim::Time::seconds(5);
  return m;
}

TEST(Sweep, ResultsInInputOrder) {
  const test::TempJournal journal("sweep_order");
  SweepOptions opts;
  opts.threads = 1;
  opts.manifest_path = journal.path();
  const SweepReport report = run_sweep_resilient(tiny_matrix(), opts);
  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.records[0].result.config.cca1, cca::CcaKind::kCubic);
  EXPECT_EQ(report.records[1].result.config.cca1, cca::CcaKind::kReno);
  for (const RunRecord& r : report.records) EXPECT_GT(r.result.utilization, 0.1);
}

TEST(Sweep, ProgressCallbackSeesEveryConfig) {
  const test::TempJournal journal("sweep_progress");
  SweepOptions opts;
  opts.manifest_path = journal.path();
  std::atomic<int> calls{0};
  std::size_t last_total = 0;
  opts.on_result = [&](const AveragedResult&, std::size_t, std::size_t total) {
    ++calls;
    last_total = total;
  };
  (void)run_sweep_resilient(tiny_matrix(), opts);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(last_total, 2u);
}

TEST(Sweep, MultiThreadedMatchesSingleThreaded) {
  // Without resume the second sweep ignores the first one's lines and
  // simulates every run again.
  const test::TempJournal journal("sweep_threads");
  SweepOptions serial;
  serial.threads = 1;
  serial.manifest_path = journal.path();
  SweepOptions parallel = serial;
  parallel.threads = 2;
  const SweepReport a = run_sweep_resilient(tiny_matrix(), serial);
  const SweepReport b = run_sweep_resilient(tiny_matrix(), parallel);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].result.utilization, b.records[i].result.utilization);
    EXPECT_DOUBLE_EQ(a.records[i].result.jain2, b.records[i].result.jain2);
  }
}

TEST(Sweep, EmptyInputIsEmptyOutput) {
  const test::TempJournal journal("sweep_empty");
  SweepOptions opts;
  opts.manifest_path = journal.path();
  EXPECT_TRUE(run_sweep_resilient({}, opts).records.empty());
}

TEST(Sweep, AveragingAcrossRepsIsMean) {
  ExperimentConfig cfg = tiny_matrix()[0];
  ExperimentResult r1 = run_experiment(cfg);
  ExperimentConfig cfg2 = cfg;
  cfg2.seed = cfg.seed + 1000003;
  ExperimentResult r2 = run_experiment(cfg2);
  const auto avg = average(cfg, {summarize(r1), summarize(r2)});
  EXPECT_EQ(avg.repetitions, 2);
  EXPECT_NEAR(avg.utilization, (r1.utilization + r2.utilization) / 2, 1e-12);
  EXPECT_NEAR(avg.sender_bps[0], (r1.sender_bps[0] + r2.sender_bps[0]) / 2, 1e-6);
}

TEST(Sweep, NonPositiveRepetitionsAreRejected) {
  SweepOptions opts;
  for (const int reps : {0, -1}) {
    opts.repetitions = reps;
    EXPECT_THROW((void)run_sweep_resilient(tiny_matrix(), opts), std::invalid_argument);
    EXPECT_THROW((void)run_averaged(tiny_matrix()[0], reps), std::invalid_argument);
  }
}

/// Per-seed journaling: one line per (config, seed) run.
class SweepJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("elephant_sweep_journal_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::filesystem::path journal() const { return dir_ / "runs.jsonl"; }

  SweepReport sweep(const std::vector<ExperimentConfig>& configs, int reps,
                    const std::atomic<bool>* cancel = nullptr) {
    SweepOptions opts;
    opts.threads = 1;
    opts.repetitions = reps;
    opts.manifest_path = journal();
    opts.resume = true;
    opts.cancel = cancel;
    return run_sweep_resilient(configs, opts);
  }

  /// Parseable journal lines in order.
  [[nodiscard]] std::vector<ManifestEntry> journal_lines() const {
    std::vector<ManifestEntry> out;
    std::ifstream in(journal());
    std::string line;
    while (std::getline(in, line)) {
      ManifestEntry e;
      if (SweepManifest::parse_line(line, &e)) out.push_back(std::move(e));
    }
    return out;
  }

  std::filesystem::path dir_;
};

std::vector<ExperimentConfig> short_matrix() {
  auto m = tiny_matrix();
  for (auto& cfg : m) cfg.duration = sim::Time::seconds(1);
  return m;
}

/// Run r of `cfg`: its seed is sub-stream r of the cell's.
ExperimentConfig run_of(const ExperimentConfig& cfg, int r) {
  ExperimentConfig run = cfg;
  run.seed = sim::derive_seed(cfg.seed, static_cast<std::uint64_t>(r));
  return run;
}

void expect_same(const AveragedResult& got, const AveragedResult& want) {
  EXPECT_EQ(got.repetitions, want.repetitions);
  EXPECT_EQ(got.sender_bps[0], want.sender_bps[0]);
  EXPECT_EQ(got.sender_bps[1], want.sender_bps[1]);
  EXPECT_EQ(got.jain2, want.jain2);
  EXPECT_EQ(got.utilization, want.utilization);
  EXPECT_EQ(got.retx_segments, want.retx_segments);
  EXPECT_EQ(got.rtos, want.rtos);
  EXPECT_EQ(got.classes.size(), want.classes.size());
  EXPECT_EQ(got.episodes, want.episodes);
  EXPECT_EQ(got.episode_worst_jain, want.episode_worst_jain);
  EXPECT_EQ(got.config.id(), want.config.id());
}

TEST_F(SweepJournalTest, ThreeRepSweepJournalsOneLinePerSeed) {
  const auto configs = short_matrix();
  const SweepReport report = sweep(configs, 3);
  ASSERT_EQ(report.records.size(), 2u);

  const std::vector<ManifestEntry> lines = journal_lines();
  ASSERT_EQ(lines.size(), 6u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(report.records[i].status, RunStatus::kOk);
    EXPECT_EQ(report.records[i].attempts, 3);
    expect_same(report.records[i].result, run_averaged(configs[i], 3));
    for (int r = 0; r < 3; ++r) {
      const auto it = std::find_if(lines.begin(), lines.end(), [&](const ManifestEntry& e) {
        return e.id == run_of(configs[i], r).id();
      });
      ASSERT_NE(it, lines.end()) << "cell " << i << " seed " << r;
      EXPECT_EQ(it->index, i * 3 + static_cast<std::size_t>(r));
      EXPECT_EQ(it->result.repetitions, 1);
    }
  }
}

TEST_F(SweepJournalTest, FiveRepResumeOverThreeRepJournalSimulatesOnlyNewSeeds) {
  const ExperimentConfig cfg = short_matrix()[0];
  ASSERT_EQ(sweep({cfg}, 3).records[0].attempts, 3);
  const RunRecord five = sweep({cfg}, 5).records[0];
  EXPECT_EQ(five.attempts, 2);  // seeds 3 and 4 only
  EXPECT_FALSE(five.resumed);
  expect_same(five.result, run_averaged(cfg, 5));

  const std::vector<ManifestEntry> lines = journal_lines();
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[3].id, run_of(cfg, 3).id());
  EXPECT_EQ(lines[4].id, run_of(cfg, 4).id());
}

TEST_F(SweepJournalTest, DrainedMidCellResumesOnlyMissingRuns) {
  const ExperimentConfig cfg = short_matrix()[0];
  const RunRecord full = sweep({cfg}, 3).records[0];
  // A sweep drained (or killed) after two of the cell's three runs leaves
  // exactly their lines behind.
  const std::vector<ManifestEntry> lines = journal_lines();
  ASSERT_EQ(lines.size(), 3u);
  std::filesystem::remove(journal());
  ASSERT_TRUE(test::append_journal(journal(), {lines[0], lines[1]}));

  // A drained pass over that journal reports the cell skipped, not done.
  const std::atomic<bool> cancel{true};
  const RunRecord drained = sweep({cfg}, 3, &cancel).records[0];
  EXPECT_EQ(drained.status, RunStatus::kSkipped);
  EXPECT_EQ(drained.attempts, 0);
  EXPECT_FALSE(drained.resumed);

  const RunRecord resumed = sweep({cfg}, 3).records[0];
  EXPECT_EQ(resumed.status, RunStatus::kOk);
  EXPECT_EQ(resumed.attempts, 1);  // seed 2 only
  expect_same(resumed.result, full.result);
  const std::vector<ManifestEntry> after = journal_lines();
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[2].id, run_of(cfg, 2).id());
}

TEST_F(SweepJournalTest, SecondLedgerRunAppendsNoCompletionLine) {
  const char* old_dir = std::getenv("ELEPHANT_RESULTS_DIR");
  const std::string saved = old_dir != nullptr ? old_dir : "";
  ::setenv("ELEPHANT_RESULTS_DIR", dir_.c_str(), 1);
  const ExperimentConfig cfg = short_matrix()[0];
  const ExperimentConfig other = short_matrix()[1];
  const auto first = run_seeds({cfg}, 1, 1);
  const auto second = run_seeds({cfg}, 1, 1);
  const std::size_t lines_after_rerun = journal_lines().size();
  const auto pair = run_seeds({other, cfg}, 1, 1);
  const std::size_t lines_after_pair = journal_lines().size();
  const auto seeds = run_seeds({cfg}, 2, 1);
  if (old_dir != nullptr) {
    ::setenv("ELEPHANT_RESULTS_DIR", saved.c_str(), 1);
  } else {
    ::unsetenv("ELEPHANT_RESULTS_DIR");
  }
  EXPECT_EQ(lines_after_rerun, 1u);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_EQ(first[0].size(), 1u);
  expect_same(second[0][0], first[0][0]);
  expect_same(first[0][0], run_averaged(cfg, 1));
  // A two-config list comes back in input order; only the new cell is run.
  EXPECT_EQ(lines_after_pair, 2u);
  ASSERT_EQ(pair.size(), 2u);
  expect_same(pair[0][0], run_averaged(other, 1));
  expect_same(pair[1][0], first[0][0]);
  // Seed r is run r of `sweep --reps`: seed 0 is served, seed 1 simulated,
  // and their fold is run_averaged's.
  EXPECT_EQ(journal_lines().size(), 3u);
  ASSERT_EQ(seeds[0].size(), 2u);
  expect_same(seeds[0][0], first[0][0]);
  expect_same(average(cfg, seeds[0]), run_averaged(cfg, 2));
}

TEST_F(SweepJournalTest, DuplicateRunIdIsRejected) {
  const ExperimentConfig cfg = short_matrix()[0];
  try {
    (void)sweep({cfg, cfg}, 1);
    FAIL() << "a config listed twice must be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(cfg.id()), std::string::npos) << e.what();
  }
  // Refused before any run starts: the journal stays empty.
  EXPECT_TRUE(journal_lines().empty());
}

TEST_F(SweepJournalTest, RetriedLineFromOlderBuildIsResimulatedAtItsOwnSeed) {
  // Older builds journaled a reseeded retry as "retried" under the run's id:
  // another seed's numbers. This build does not parse such a line, so a
  // resumed sweep simulates that run again at its own seed.
  const ExperimentConfig cfg = short_matrix()[0];
  ASSERT_EQ(sweep({cfg}, 3).records[0].attempts, 3);
  const std::vector<ManifestEntry> lines = journal_lines();
  ASSERT_EQ(lines.size(), 3u);
  ManifestEntry reseeded = lines[1];
  reseeded.attempts = 2;
  reseeded.result.jain2 = 0.123;
  std::string retried = SweepManifest::format_line(reseeded);
  const std::string ok_status = "\"status\":\"ok\"";
  retried.replace(retried.find(ok_status), ok_status.size(), "\"status\":\"retried\"");
  ManifestEntry unused;
  EXPECT_FALSE(SweepManifest::parse_line(retried, &unused));
  std::filesystem::remove(journal());
  ASSERT_TRUE(test::append_journal(journal(), {lines[0], lines[2]}));
  std::ofstream(journal(), std::ios::app) << retried << '\n';

  const RunRecord resumed = sweep({cfg}, 3).records[0];
  EXPECT_EQ(resumed.status, RunStatus::kOk);
  EXPECT_EQ(resumed.attempts, 1);  // seed 1 only
  expect_same(resumed.result, run_averaged(cfg, 3));
  const std::vector<ManifestEntry> after = journal_lines();
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[2].id, run_of(cfg, 1).id());
  EXPECT_EQ(after[2].index, 1u);
  EXPECT_EQ(after[2].attempts, 1);
  const AveragedResult own_seed = run_averaged(run_of(cfg, 1), 1);
  EXPECT_EQ(after[2].result.repetitions, 1);
  EXPECT_EQ(after[2].result.sender_bps[0], own_seed.sender_bps[0]);
  EXPECT_EQ(after[2].result.sender_bps[1], own_seed.sender_bps[1]);
  EXPECT_EQ(after[2].result.jain2, own_seed.jain2);
  EXPECT_EQ(after[2].result.utilization, own_seed.utilization);
  EXPECT_EQ(after[2].result.retx_segments, own_seed.retx_segments);
  EXPECT_EQ(after[2].result.rtos, own_seed.rtos);
}

}  // namespace
}  // namespace elephant::exp
