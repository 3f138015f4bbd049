#include "exp/sweep.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <thread>

#include "exp/manifest.hpp"
#include "test_util.hpp"
#include "workload/workload.hpp"

namespace elephant::exp {
namespace {

class ResilientSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("elephant_resilient_sweep_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::filesystem::path manifest_path() const { return dir_ / "sweep.jsonl"; }

  std::filesystem::path dir_;
};

/// `n` quick configs differing only in seed.
std::vector<ExperimentConfig> quick_batch(int n, double duration_s = 2) {
  std::vector<ExperimentConfig> configs;
  for (int i = 0; i < n; ++i) {
    auto cfg = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                  aqm::AqmKind::kFifo, 2.0, 100e6, duration_s);
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    configs.push_back(cfg);
  }
  return configs;
}

/// An AQM kind the factory does not know: constructing the dumbbell throws
/// std::invalid_argument — the "deliberately faulting config".
ExperimentConfig poisoned_config() {
  auto cfg = test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                aqm::AqmKind::kFifo, 2.0, 100e6, 2);
  cfg.aqm = static_cast<aqm::AqmKind>(99);
  return cfg;
}

TEST_F(ResilientSweepTest, ThrowingConfigIsIsolated) {
  auto configs = quick_batch(19, /*duration_s=*/1);
  configs.insert(configs.begin() + 7, poisoned_config());

  SweepOptions opts;
  opts.threads = 2;
  opts.manifest_path = manifest_path();
  const SweepReport report = run_sweep_resilient(configs, opts);

  ASSERT_EQ(report.records.size(), 20u);
  EXPECT_EQ(report.completed(), 19u);
  EXPECT_EQ(report.failed(), 1u);
  EXPECT_EQ(report.records[7].status, RunStatus::kFailed);
  EXPECT_FALSE(report.records[7].error.empty());
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    if (i == 7) continue;
    EXPECT_EQ(report.records[i].status, RunStatus::kOk) << "cell " << i;
    EXPECT_GT(report.records[i].result.utilization, 0.0) << "cell " << i;
  }
}

TEST_F(ResilientSweepTest, EventBudgetRecordsTimeoutWithoutRetry) {
  SweepOptions opts;
  opts.threads = 1;
  opts.manifest_path = manifest_path();
  opts.run_event_budget = 500;
  const SweepReport report = run_sweep_resilient(quick_batch(1), opts);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].status, RunStatus::kTimedOut);
  EXPECT_EQ(report.records[0].attempts, 1);
  EXPECT_NE(report.records[0].error.find("event budget"), std::string::npos);
}

TEST_F(ResilientSweepTest, FailedRunIsOneAttemptResumeRetriesItsOwnSeed) {
  // A throwing run is attempted once and journaled as failed under its own
  // id (which carries its seed); a resumed sweep attempts that same run
  // again, and no other seed's numbers ever stand in for it.
  const ExperimentConfig poisoned = poisoned_config();
  SweepOptions opts;
  opts.threads = 1;
  opts.manifest_path = manifest_path();
  const SweepReport first = run_sweep_resilient({poisoned}, opts);
  ASSERT_EQ(first.records.size(), 1u);
  EXPECT_EQ(first.records[0].status, RunStatus::kFailed);
  EXPECT_EQ(first.records[0].attempts, 1);

  opts.resume = true;
  const SweepReport second = run_sweep_resilient({poisoned}, opts);
  ASSERT_EQ(second.records.size(), 1u);
  EXPECT_EQ(second.records[0].status, RunStatus::kFailed);
  EXPECT_EQ(second.records[0].attempts, 1);
  EXPECT_FALSE(second.records[0].resumed);
  EXPECT_EQ(second.records[0].error, first.records[0].error);

  std::ifstream in(manifest_path());
  std::string line;
  int failures = 0;
  while (std::getline(in, line)) {
    ManifestEntry e;
    ASSERT_TRUE(SweepManifest::parse_line(line, &e)) << line;
    EXPECT_EQ(e.id, poisoned.id());
    EXPECT_EQ(e.status, RunStatus::kFailed);
    EXPECT_EQ(e.attempts, 1);
    ++failures;
  }
  EXPECT_EQ(failures, 2);
}

TEST_F(ResilientSweepTest, ManifestLineRoundTrips) {
  ManifestEntry e;
  e.index = 17;
  e.id = "cubic_vs_cubic-fifo-bdp2-100M";
  e.status = RunStatus::kTimedOut;
  e.attempts = 2;
  e.result.repetitions = 3;
  e.result.sender_bps[0] = 4.25e7;
  e.result.sender_bps[1] = 3.1e7;
  e.result.jain2 = 0.987654321;
  e.result.utilization = 0.75;
  e.result.retx_segments = 12.5;
  e.result.rtos = 1;
  e.error = "budget \"tripped\"\nat t=1.5s \\ again";

  ManifestEntry back;
  ASSERT_TRUE(SweepManifest::parse_line(SweepManifest::format_line(e), &back));
  EXPECT_EQ(back.index, e.index);
  EXPECT_EQ(back.id, e.id);
  EXPECT_EQ(back.status, e.status);
  EXPECT_EQ(back.attempts, e.attempts);
  EXPECT_EQ(back.result.repetitions, e.result.repetitions);
  EXPECT_DOUBLE_EQ(back.result.sender_bps[0], e.result.sender_bps[0]);
  EXPECT_DOUBLE_EQ(back.result.sender_bps[1], e.result.sender_bps[1]);
  EXPECT_DOUBLE_EQ(back.result.jain2, e.result.jain2);
  EXPECT_DOUBLE_EQ(back.result.utilization, e.result.utilization);
  EXPECT_DOUBLE_EQ(back.result.retx_segments, e.result.retx_segments);
  EXPECT_DOUBLE_EQ(back.result.rtos, e.result.rtos);
  EXPECT_EQ(back.error, e.error);
}

TEST_F(ResilientSweepTest, ManifestClassBlockRoundTrips) {
  ManifestEntry e;
  e.index = 3;
  e.id = "cubic_vs_bbr-fifo-bdp1-100M-wl[mice]";
  e.status = RunStatus::kOk;
  e.attempts = 1;
  e.result.repetitions = 1;
  ClassResult elephants;
  elephants.name = "elephants";
  elephants.flows = 2;
  elephants.throughput_bps = 9.1e7;
  elephants.share = 0.91;
  elephants.jain = 0.97;
  ClassResult mice;
  mice.name = "mice";
  mice.flows = 40;
  mice.completed = 39;
  mice.throughput_bps = 8.2e6;
  mice.share = 0.09;
  mice.jain = 0.55;
  mice.fct_p50_s = 0.125;
  mice.fct_p95_s = 0.75;
  mice.fct_p99_s = 1.5;
  mice.fct_mean_s = 0.25;
  mice.slowdown_p50 = 2.25;
  mice.slowdown_p95 = 8.5;
  mice.slowdown_p99 = 17.0;
  e.result.classes = {elephants, mice};

  ManifestEntry back;
  ASSERT_TRUE(SweepManifest::parse_line(SweepManifest::format_line(e), &back));
  ASSERT_EQ(back.result.classes.size(), 2u);
  EXPECT_EQ(back.result.classes[0].name, "elephants");
  EXPECT_DOUBLE_EQ(back.result.classes[0].jain, 0.97);
  EXPECT_EQ(back.result.classes[1].name, "mice");
  EXPECT_EQ(back.result.classes[1].flows, 40u);
  EXPECT_EQ(back.result.classes[1].completed, 39u);
  EXPECT_DOUBLE_EQ(back.result.classes[1].throughput_bps, 8.2e6);
  EXPECT_DOUBLE_EQ(back.result.classes[1].share, 0.09);
  EXPECT_DOUBLE_EQ(back.result.classes[1].fct_p50_s, 0.125);
  EXPECT_DOUBLE_EQ(back.result.classes[1].fct_p95_s, 0.75);
  EXPECT_DOUBLE_EQ(back.result.classes[1].fct_p99_s, 1.5);
  EXPECT_DOUBLE_EQ(back.result.classes[1].fct_mean_s, 0.25);
  EXPECT_DOUBLE_EQ(back.result.classes[1].slowdown_p50, 2.25);
  EXPECT_DOUBLE_EQ(back.result.classes[1].slowdown_p99, 17.0);
}

TEST_F(ResilientSweepTest, ElephantOnlyManifestLineHasNoClassesBlock) {
  // Elephant-only cells must keep the exact pre-workload journal format so
  // old manifests stay resumable and diffs stay trivial.
  ManifestEntry e;
  e.index = 0;
  e.id = "cell-a";
  e.status = RunStatus::kOk;
  EXPECT_EQ(SweepManifest::format_line(e).find("classes"), std::string::npos);
}

TEST_F(ResilientSweepTest, ManifestLoadToleratesTornTailAndKeepsLatest) {
  ManifestEntry first;
  first.index = 0;
  first.id = "cell-a";
  first.status = RunStatus::kFailed;
  first.result.repetitions = 1;  // a success line holds one run
  ManifestEntry second = first;
  second.status = RunStatus::kOk;  // later line for the same id supersedes
  ManifestEntry other;
  other.index = 1;
  other.id = "cell-b";
  other.status = RunStatus::kOk;
  other.result.repetitions = 1;

  {
    std::ofstream out(manifest_path());
    out << SweepManifest::format_line(first) << '\n'
        << SweepManifest::format_line(other) << '\n'
        << SweepManifest::format_line(second) << '\n'
        << R"({"i":2,"id":"cell-c","status":"ok","attempts)";  // torn mid-write
  }
  // Opening the journal terminates the torn line; resume's one read then
  // skips it, and cell-a's later success supersedes its failure.
  const SweepManifest journal(manifest_path());
  ASSERT_TRUE(journal.ok()) << journal.last_error();
  std::vector<std::optional<ManifestEntry>> latest;
  std::string error;
  ASSERT_TRUE(journal.read_runs({"cell-a", "cell-b", "cell-c"}, &latest, &error)) << error;
  ASSERT_EQ(latest.size(), 3u);
  ASSERT_TRUE(latest[0].has_value());
  ASSERT_TRUE(latest[1].has_value());
  EXPECT_EQ(latest[0]->status, RunStatus::kOk);
  EXPECT_EQ(latest[1]->status, RunStatus::kOk);
  EXPECT_FALSE(latest[2].has_value());
}

/// A one-run success line for `id`, as a sweep journals it.
ManifestEntry success(std::size_t index, const std::string& id) {
  ManifestEntry e;
  e.index = index;
  e.id = id;
  e.status = RunStatus::kOk;
  e.attempts = 1;
  e.result.repetitions = 1;  // one run per line; other success lines are refused
  e.result.jain2 = 0.5 + static_cast<double>(index) * 0.01;
  return e;
}

TEST_F(ResilientSweepTest, JournalReadRefusesSuccessWithOtherRepsByLine) {
  // A per-cell multi-rep success line (or a made-up reps:0 one) would be
  // served as one run's numbers; the reader refuses it and names the line.
  for (const int reps : {5, 0}) {
    ManifestEntry multi = success(1, "cell-1");
    multi.result.repetitions = reps;
    {
      std::ofstream out(manifest_path(), std::ios::trunc);
      out << SweepManifest::format_line(success(0, "cell-0")) << '\n'
          << SweepManifest::format_line(multi) << '\n';
    }
    const SweepManifest journal(manifest_path());
    std::vector<std::optional<ManifestEntry>> latest;
    std::string error;
    EXPECT_FALSE(journal.read_runs({"cell-0", "cell-1", "cell-2"}, &latest, &error))
        << "reps " << reps;
    EXPECT_NE(error.find("line 2 of " + manifest_path().string()), std::string::npos) << error;
    EXPECT_NE(error.find("\"cell-1\" with reps " + std::to_string(reps)), std::string::npos)
        << error;
  }

  // A resumed sweep over such a line refuses to start: it throws naming the
  // line and simulates (so journals) nothing.
  auto cfg = quick_batch(1, /*duration_s=*/1)[0];
  ManifestEntry multi = success(0, cfg.id());
  multi.result.repetitions = 5;
  std::ofstream(manifest_path(), std::ios::trunc) << SweepManifest::format_line(multi) << '\n';
  const auto size = std::filesystem::file_size(manifest_path());
  SweepOptions opts;
  opts.threads = 1;
  opts.manifest_path = manifest_path();
  opts.resume = true;
  try {
    (void)run_sweep_resilient({cfg}, opts);
    FAIL() << "a multi-rep success line must be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("refusing line 1 of"), std::string::npos) << e.what();
  }
  EXPECT_EQ(std::filesystem::file_size(manifest_path()), size);
}

TEST_F(ResilientSweepTest, JournalReadRefusalIgnoresForeignIdsAndFailureLines) {
  // Only a success the sweep would serve is refused: a multi-rep line for an
  // id outside the sweep, or a failure line (reps 0 by format), is fine.
  ManifestEntry foreign = success(9, "other-sweep-cell");
  foreign.result.repetitions = 5;
  ManifestEntry failed;
  failed.index = 0;
  failed.id = "cell-0";
  failed.status = RunStatus::kFailed;
  ASSERT_TRUE(test::append_journal(manifest_path(), {foreign, failed}));
  const SweepManifest journal(manifest_path());
  std::vector<std::optional<ManifestEntry>> latest;
  std::string error;
  ASSERT_TRUE(journal.read_runs({"cell-0"}, &latest, &error)) << error;
  ASSERT_TRUE(latest[0].has_value());
  EXPECT_EQ(latest[0]->status, RunStatus::kFailed);  // pending: resume re-runs it
}

TEST_F(ResilientSweepTest, SweepJournalsEveryCell) {
  auto configs = quick_batch(3);
  configs.push_back(poisoned_config());
  SweepOptions opts;
  opts.threads = 1;
  opts.manifest_path = manifest_path();
  (void)run_sweep_resilient(configs, opts);

  const auto entries = test::latest_entries(manifest_path());
  ASSERT_EQ(entries.size(), 4u);
  int ok = 0;
  int failed = 0;
  for (const auto& [id, e] : entries) (e.success() ? ok : failed)++;
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(failed, 1);
}

TEST_F(ResilientSweepTest, ResumeSkipsJournaledCellsAndRerunsFailures) {
  auto configs = quick_batch(4);
  SweepOptions opts;
  opts.threads = 1;
  opts.manifest_path = manifest_path();
  const SweepReport first = run_sweep_resilient(configs, opts);
  ASSERT_EQ(first.completed(), 4u);

  // Simulate a kill after two cells: keep only their journal lines, and mark
  // one surviving cell as failed so resume must re-attempt it.
  const auto entries = test::latest_entries(manifest_path());
  std::filesystem::remove(manifest_path());
  ManifestEntry kept_failed = entries.at(configs[1].id());
  kept_failed.status = RunStatus::kFailed;
  kept_failed.error = "killed";
  const ManifestEntry kept_ok = entries.at(configs[0].id());
  ASSERT_TRUE(test::append_journal(manifest_path(), {kept_ok, kept_failed}));

  opts.resume = true;
  const SweepReport second = run_sweep_resilient(configs, opts);
  ASSERT_EQ(second.records.size(), 4u);
  // Cell 0: satisfied from the journal, zero simulation attempts.
  EXPECT_TRUE(second.records[0].resumed);
  EXPECT_EQ(second.records[0].attempts, 0);
  // Cell 1 (journaled as failed) and cells 2-3 (no journal line): re-run.
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(second.records[i].resumed) << "cell " << i;
    EXPECT_EQ(second.records[i].attempts, 1) << "cell " << i;
    EXPECT_EQ(second.records[i].status, RunStatus::kOk) << "cell " << i;
  }
  // The resumed cell's numbers come back from the journal intact.
  EXPECT_DOUBLE_EQ(second.records[0].result.utilization,
                   first.records[0].result.utilization);
  EXPECT_DOUBLE_EQ(second.records[0].result.jain2, first.records[0].result.jain2);
  EXPECT_EQ(second.records[0].result.config.id(), configs[0].id());
  // And the journal now shows the re-run superseding the failure.
  const auto after = test::latest_entries(manifest_path());
  EXPECT_EQ(after.at(configs[1].id()).status, RunStatus::kOk);
}

TEST_F(ResilientSweepTest, FailedCellLeavesDefaultResult) {
  auto configs = quick_batch(2);
  configs.push_back(poisoned_config());
  SweepOptions opts;
  opts.threads = 1;
  opts.manifest_path = manifest_path();
  const SweepReport report = run_sweep_resilient(configs, opts);
  ASSERT_EQ(report.records.size(), 3u);
  EXPECT_GT(report.records[0].result.utilization, 0.0);
  EXPECT_GT(report.records[1].result.utilization, 0.0);
  EXPECT_EQ(report.records[2].result.repetitions, 0);  // failed cell: default-constructed
}

TEST_F(ResilientSweepTest, UnusableManifestFailsLoudly) {
  // A regular file where the manifest's parent directory should be: both
  // create_directories and open fail, and the sweep must refuse to start.
  std::ofstream(dir_ / "blocker") << "not a directory";
  SweepOptions opts;
  opts.threads = 1;
  opts.manifest_path = dir_ / "blocker" / "m.jsonl";
  EXPECT_THROW((void)run_sweep_resilient(quick_batch(1), opts), std::runtime_error);
}

TEST_F(ResilientSweepTest, AppendRepairsTornTailBeforeWriting) {
  // A crashed writer leaves an unterminated fragment. The next append must
  // terminate it first — otherwise the two lines merge and both are lost.
  {
    std::ofstream out(manifest_path());
    out << R"({"i":0,"id":"torn","status":"ok","atte)";  // no newline
  }
  ManifestEntry e;
  e.index = 1;
  e.id = "cell-b";
  e.status = RunStatus::kOk;
  ASSERT_TRUE(test::append_journal(manifest_path(), {e}));
  const auto entries = test::latest_entries(manifest_path());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.count("cell-b"), 1u);  // survived the torn neighbor
}

TEST_F(ResilientSweepTest, PreSetCancelSkipsEveryCell) {
  std::atomic<bool> cancel{true};
  SweepOptions opts;
  opts.threads = 2;
  opts.manifest_path = manifest_path();
  opts.cancel = &cancel;
  const SweepReport report = run_sweep_resilient(quick_batch(3), opts);
  ASSERT_EQ(report.records.size(), 3u);
  EXPECT_EQ(report.skipped(), 3u);
  for (const RunRecord& rec : report.records) {
    EXPECT_EQ(rec.status, RunStatus::kSkipped);
    EXPECT_FALSE(rec.success());
    EXPECT_NE(rec.error.find("not attempted"), std::string::npos);
  }
}

TEST_F(ResilientSweepTest, SecondSweepOnLockedJournalThrowsAndAppendsNothing) {
  // The journal has one writer: while a sweep (here, an open SweepManifest)
  // holds it, a second sweep throws naming it and writes nothing, so two
  // writers can never interleave their lines.
  auto configs = quick_batch(2, /*duration_s=*/1);
  ASSERT_TRUE(test::append_journal(manifest_path(), {success(0, "cell-0")}));
  const auto size = std::filesystem::file_size(manifest_path());
  {
    const SweepManifest holder(manifest_path());
    ASSERT_TRUE(holder.ok()) << holder.last_error();
    SweepOptions opts;
    opts.threads = 2;
    opts.manifest_path = manifest_path();
    for (const bool resume : {false, true}) {
      opts.resume = resume;
      try {
        (void)run_sweep_resilient(configs, opts);
        FAIL() << "a journal in use must be refused";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("journal " + manifest_path().string() +
                                             " is in use"),
                  std::string::npos)
            << e.what();
      }
    }
    EXPECT_FALSE(test::append_journal(manifest_path(), {success(1, "cell-1")}));
    EXPECT_EQ(std::filesystem::file_size(manifest_path()), size);
  }
  // Released with its holder: the next sweep journals every run.
  SweepOptions opts;
  opts.threads = 1;
  opts.manifest_path = manifest_path();
  EXPECT_EQ(run_sweep_resilient(configs, opts).completed(), 2u);
  EXPECT_EQ(test::latest_entries(manifest_path()).size(), 3u);
}

TEST_F(ResilientSweepTest, RunsAreJournaledInSweepOrderOnceEach) {
  // One line per simulated run, in sweep order, and nothing else: no claim
  // or lease lines ride along.
  const auto configs = quick_batch(3, /*duration_s=*/1);
  SweepOptions opts;
  opts.threads = 1;
  opts.manifest_path = manifest_path();
  ASSERT_EQ(run_sweep_resilient(configs, opts).completed(), 3u);
  std::ifstream in(manifest_path());
  std::string line;
  std::size_t n = 0;
  for (; std::getline(in, line); ++n) {
    ManifestEntry e;
    ASSERT_TRUE(SweepManifest::parse_line(line, &e)) << line;
    ASSERT_LT(n, configs.size());
    EXPECT_EQ(e.index, n);
    EXPECT_EQ(e.id, configs[n].id());
    EXPECT_EQ(e.status, RunStatus::kOk);
  }
  EXPECT_EQ(n, configs.size());
}

TEST_F(ResilientSweepTest, FreshSweepRerunsJournaledRunsResumeServesThem) {
  // Without resume the journal is not read: a journaled run is simulated
  // again and appends its line. With resume it is served, simulating nothing.
  const auto cfg = quick_batch(1, /*duration_s=*/1)[0];
  ASSERT_TRUE(test::append_journal(manifest_path(), {success(0, cfg.id())}));
  SweepOptions opts;
  opts.threads = 1;
  opts.manifest_path = manifest_path();
  const RunRecord fresh = run_sweep_resilient({cfg}, opts).records.at(0);
  EXPECT_FALSE(fresh.resumed);
  EXPECT_EQ(fresh.attempts, 1);
  EXPECT_NE(fresh.result.jain2, 0.5);  // simulated, not the journaled line

  opts.resume = true;
  const RunRecord resumed = run_sweep_resilient({cfg}, opts).records.at(0);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.attempts, 0);
  EXPECT_EQ(resumed.result.jain2, fresh.result.jain2);  // the latest success line
  std::ifstream in(manifest_path());
  EXPECT_EQ(std::count(std::istreambuf_iterator<char>(in), {}, '\n'), 2);
}

void expect_same_record(const RunRecord& got, const RunRecord& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.result.repetitions, want.result.repetitions);
  EXPECT_EQ(got.result.sender_bps[0], want.result.sender_bps[0]);
  EXPECT_EQ(got.result.sender_bps[1], want.result.sender_bps[1]);
  EXPECT_EQ(got.result.jain2, want.result.jain2);
  EXPECT_EQ(got.result.utilization, want.result.utilization);
  EXPECT_EQ(got.result.retx_segments, want.result.retx_segments);
  EXPECT_EQ(got.result.rtos, want.result.rtos);
  EXPECT_EQ(got.result.config.id(), want.result.config.id());
}

TEST_F(ResilientSweepTest, SigkilledSweepResumesOnlyUnjournaledRuns) {
  // A real sweep in a child process, SIGKILLed once its journal holds two
  // lines (possibly mid-write of a third). The resumed sweep simulates only
  // the runs without a success line, leaves one success line per run, and
  // its records equal an uninterrupted sweep's bit for bit. Runs of 20
  // simulated seconds keep the child busy long after its second line.
  const auto configs = quick_batch(24, /*duration_s=*/20);
  SweepOptions opts;
  opts.threads = 1;
  opts.manifest_path = manifest_path();
  opts.resume = true;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      (void)run_sweep_resilient(configs, opts);
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);
  }
  auto journaled_lines = [&] {
    std::ifstream in(manifest_path());
    return std::count(std::istreambuf_iterator<char>(in), {}, '\n');
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (journaled_lines() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "the child finished before the kill";
  const std::size_t journaled = test::latest_entries(manifest_path()).size();
  ASSERT_GE(journaled, 2u);
  ASSERT_LT(journaled, configs.size());

  const SweepReport resumed = run_sweep_resilient(configs, opts);
  int simulated = 0;
  for (const RunRecord& rec : resumed.records) simulated += rec.attempts;
  EXPECT_EQ(static_cast<std::size_t>(simulated), configs.size() - journaled);

  std::map<std::string, int> successes;
  std::ifstream in(manifest_path());
  std::string line;
  while (std::getline(in, line)) {
    ManifestEntry e;
    if (SweepManifest::parse_line(line, &e) && e.success()) ++successes[e.id];
  }
  ASSERT_EQ(successes.size(), configs.size());
  for (const auto& [id, n] : successes) EXPECT_EQ(n, 1) << id;

  SweepOptions ref_opts = opts;
  ref_opts.manifest_path = dir_ / "reference.jsonl";
  const SweepReport reference = run_sweep_resilient(configs, ref_opts);
  ASSERT_EQ(resumed.records.size(), reference.records.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_same_record(resumed.records[i], reference.records[i]);
  }
}

TEST_F(ResilientSweepTest, ReportCountsByStatus) {
  SweepReport report;
  report.records.resize(5);
  report.records[0].status = RunStatus::kOk;
  report.records[1].status = RunStatus::kSkipped;
  report.records[2].status = RunStatus::kFailed;
  report.records[3].status = RunStatus::kTimedOut;
  report.records[4].status = RunStatus::kOk;
  EXPECT_EQ(report.count(RunStatus::kOk), 2u);
  EXPECT_EQ(report.completed(), 2u);
  EXPECT_EQ(report.failed(), 2u);
  EXPECT_EQ(report.skipped(), 1u);
}

// ---------------------------------------------------------------------------
// The journal is the run cache: a resumed sweep serves a run from its success
// line and simulates only what the journal lacks. These pin, for journal
// lines, the guarantees the per-run cache files used to give: a line is
// keyed by the run's full id, served bit for bit, and a damaged line is
// never served — the run is simulated again and its fresh line supersedes.

class CacheTest : public ResilientSweepTest {
 protected:
  /// A one-run sweep of `cfg` resumed from the journal.
  RunRecord sweep(const ExperimentConfig& cfg) {
    return sweep_all({cfg}).at(0);
  }
  std::vector<RunRecord> sweep_all(const std::vector<ExperimentConfig>& configs) {
    SweepOptions opts;
    opts.threads = 1;
    opts.manifest_path = manifest_path();
    opts.resume = true;
    return run_sweep_resilient(configs, opts).records;
  }
  void write_journal(const std::string& text) { std::ofstream(manifest_path()) << text; }
};

ExperimentConfig cache_config() {
  return test::quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic, aqm::AqmKind::kFifo,
                            2.0, 100e6, 1);
}

/// A success line for `cfg` with numbers no simulation produces, so a served
/// run is told apart from a simulated one.
ManifestEntry fake_line(const ExperimentConfig& cfg) {
  ManifestEntry e;
  e.id = cfg.id();
  e.status = RunStatus::kOk;
  e.attempts = 1;
  e.result.repetitions = 1;
  e.result.sender_bps[0] = 4.2e8;
  e.result.sender_bps[1] = 5.8e8;
  e.result.jain2 = 0.973;
  e.result.utilization = 0.99;
  e.result.retx_segments = 1234;
  e.result.rtos = 3;
  return e;
}

std::string fake_text(const ExperimentConfig& cfg) {
  return SweepManifest::format_line(fake_line(cfg)) + "\n";
}

/// `line` with the value of numeric field `key` replaced by `value`.
std::string with_field(std::string line, const std::string& key, const std::string& value) {
  const std::size_t at = line.find("\"" + key + "\":");
  const std::size_t from = at + key.size() + 3;
  line.replace(from, line.find_first_of(",}", from) - from, value);
  return line;
}

bool served(const RunRecord& rec) { return rec.resumed && rec.attempts == 0; }

TEST_F(CacheTest, MissOnEmptyCache) {
  const RunRecord rec = sweep(cache_config());
  EXPECT_FALSE(rec.resumed);
  EXPECT_EQ(rec.attempts, 1);
  EXPECT_EQ(test::latest_entries(manifest_path()).count(cache_config().id()), 1u);
}

TEST_F(CacheTest, StoreThenLoadRoundTrips) {
  write_journal(fake_text(cache_config()));
  const RunRecord rec = sweep(cache_config());
  ASSERT_TRUE(served(rec));
  EXPECT_EQ(rec.result.repetitions, 1);
  EXPECT_EQ(rec.result.sender_bps[0], 4.2e8);
  EXPECT_EQ(rec.result.sender_bps[1], 5.8e8);
  EXPECT_EQ(rec.result.jain2, 0.973);
  EXPECT_EQ(rec.result.utilization, 0.99);
  EXPECT_EQ(rec.result.retx_segments, 1234);
  EXPECT_EQ(rec.result.rtos, 3);
}

TEST_F(CacheTest, DifferentConfigsDoNotCollide) {
  const ExperimentConfig a = cache_config();
  ExperimentConfig b = a;
  b.buffer_bdp = 16;
  write_journal(fake_text(a));
  const std::vector<RunRecord> recs = sweep_all({a, b});
  EXPECT_TRUE(served(recs[0]));
  EXPECT_FALSE(recs[1].resumed);
  EXPECT_EQ(recs[1].attempts, 1);
}

TEST_F(CacheTest, DisabledCacheStoresNothing) {
  // The journal is the only result store: a sweep without one is refused
  // before it simulates or stores anything.
  SweepOptions opts;
  opts.threads = 1;
  EXPECT_THROW((void)run_sweep_resilient({cache_config()}, opts), std::invalid_argument);
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(CacheTest, CorruptFileIsAMiss) {
  write_journal("garbage\n");
  const RunRecord rec = sweep(cache_config());
  EXPECT_FALSE(rec.resumed);
  EXPECT_EQ(rec.attempts, 1);
}

TEST_F(CacheTest, MangledNumericFieldRejectedAndDeleted) {
  // A mangled number fails the whole line, so it is never served: resume
  // simulates the run again and its fresh line supersedes the damaged one.
  const std::string good = SweepManifest::format_line(fake_line(cache_config()));
  ManifestEntry e;
  ASSERT_TRUE(SweepManifest::parse_line(good, &e));
  for (const char* key : {"s1_bps", "jain2", "util"}) {
    for (const char* junk : {"4x8", "\"0.9\"", "", "0.9.1", "abc"}) {
      EXPECT_FALSE(SweepManifest::parse_line(with_field(good, key, junk), &e))
          << key << "=" << junk;
    }
  }
  write_journal(with_field(good, "s1_bps", "4x8") + "\n");
  const RunRecord rec = sweep(cache_config());
  EXPECT_EQ(rec.attempts, 1);
  EXPECT_NE(rec.result.sender_bps[0], 4.2e8);
  EXPECT_NE(test::latest_entries(manifest_path()).at(cache_config().id()).result.jain2, 0.973);
}

TEST_F(CacheTest, NonFiniteValuesRejectedAndDeleted) {
  const std::string good = SweepManifest::format_line(fake_line(cache_config()));
  ManifestEntry e;
  for (const char* key : {"s1_bps", "jain2", "util"}) {
    for (const char* bad : {"nan", "NaN", "inf", "-inf", "Infinity", "1e999"}) {
      EXPECT_FALSE(SweepManifest::parse_line(with_field(good, key, bad), &e))
          << key << "=" << bad;
    }
  }
  write_journal(with_field(good, "jain2", "nan") + "\n" + with_field(good, "util", "inf") +
                "\n");
  const RunRecord rec = sweep(cache_config());
  EXPECT_FALSE(rec.resumed);
  EXPECT_EQ(rec.attempts, 1);
  EXPECT_TRUE(std::isfinite(rec.result.jain2));
}

TEST_F(CacheTest, TruncatedEntryRejectedAndDeleted) {
  // A line cut short by a crash mid-write: required fields missing.
  const std::string good = SweepManifest::format_line(fake_line(cache_config()));
  write_journal(good.substr(0, good.find(",\"jain2\"")) + "}\n");
  const RunRecord rec = sweep(cache_config());
  EXPECT_FALSE(rec.resumed);
  EXPECT_EQ(rec.attempts, 1);
}

TEST_F(CacheTest, EvictionThenStoreRegenerates) {
  write_journal("garbage\n");
  const RunRecord first = sweep(cache_config());
  ASSERT_EQ(first.attempts, 1);
  const RunRecord second = sweep(cache_config());
  ASSERT_TRUE(served(second));
  EXPECT_EQ(second.result.jain2, first.result.jain2);
  EXPECT_EQ(second.result.utilization, first.result.utilization);
}

TEST_F(CacheTest, SeedIsPartOfTheKey) {
  ExperimentConfig a = cache_config();
  a.seed = 1;
  ExperimentConfig b = a;
  b.seed = 2;
  EXPECT_NE(a.id(), b.id());
  write_journal(fake_text(a));
  const std::vector<RunRecord> recs = sweep_all({a, b});
  EXPECT_TRUE(served(recs[0]));
  EXPECT_EQ(recs[1].attempts, 1);
}

TEST_F(CacheTest, WorkloadIsPartOfTheKey) {
  const ExperimentConfig paper = cache_config();  // default workload
  ExperimentConfig mice = paper;
  mice.workload = workload::WorkloadSpec::mice_elephants();
  // A finite fixed-size class alone, the many-flow benchmark's workload.
  ExperimentConfig manyflow = paper;
  workload::TrafficClass flows;
  flows.name = "manyflow";
  flows.kind = workload::ClassKind::kFinite;
  flows.count = 1000;
  flows.size = workload::SizeSpec::fixed(53400);
  manyflow.workload.classes = {flows};
  ExperimentConfig more_mice = mice;
  more_mice.workload.classes[1].count += 1;  // same preset, one knob turned

  // Only the elephant-only run is journaled: resume's read finds it and
  // leaves every workload variant pending.
  write_journal(fake_text(paper));
  const SweepManifest journal(manifest_path());
  std::vector<std::optional<ManifestEntry>> latest;
  std::string error;
  ASSERT_TRUE(journal.read_runs({paper.id(), mice.id(), manyflow.id(), more_mice.id()},
                                &latest, &error))
      << error;
  ASSERT_TRUE(latest[0].has_value());
  EXPECT_TRUE(latest[0]->success());
  EXPECT_FALSE(latest[1].has_value());
  EXPECT_FALSE(latest[2].has_value());
  EXPECT_FALSE(latest[3].has_value());
}

TEST_F(CacheTest, ClassRowsRoundTrip) {
  ExperimentConfig cfg = cache_config();
  cfg.workload = workload::WorkloadSpec::mice_elephants();
  ManifestEntry e = fake_line(cfg);
  ClassResult elephants;
  elephants.name = "elephants";
  elephants.flows = 2;
  elephants.throughput_bps = 9e7;
  elephants.share = 0.9;
  elephants.jain = 0.98;
  ClassResult mice;
  mice.name = "mice";
  mice.flows = 40;
  mice.completed = 38;
  mice.fct_p50_s = 0.12;
  mice.fct_p99_s = 1.7;
  mice.slowdown_p95 = 11.0;
  e.result.classes = {elephants, mice};
  write_journal(SweepManifest::format_line(e) + "\n");

  const RunRecord rec = sweep(cfg);
  ASSERT_TRUE(served(rec));
  ASSERT_EQ(rec.result.classes.size(), 2u);
  EXPECT_EQ(rec.result.classes[0].name, "elephants");
  EXPECT_EQ(rec.result.classes[0].jain, 0.98);
  EXPECT_EQ(rec.result.classes[1].name, "mice");
  EXPECT_EQ(rec.result.classes[1].flows, 40u);
  EXPECT_EQ(rec.result.classes[1].completed, 38u);
  EXPECT_EQ(rec.result.classes[1].fct_p50_s, 0.12);
  EXPECT_EQ(rec.result.classes[1].fct_p99_s, 1.7);
  EXPECT_EQ(rec.result.classes[1].slowdown_p95, 11.0);
}

TEST_F(CacheTest, LegacyEntryWithoutChecksumStillLoads) {
  // Journal lines carry no checksum. A success line in the oldest format
  // still resumed (no wall_s, classes or episodes block) is served as is.
  write_journal("{\"i\":0,\"id\":\"" + cache_config().id() +
                "\",\"status\":\"ok\",\"attempts\":1,\"reps\":1,\"s1_bps\":4.2e8,"
                "\"s2_bps\":5.8e8,\"jain2\":0.973,\"util\":0.99,\"retx\":1234,\"rtos\":3,"
                "\"error\":\"\"}\n");
  const RunRecord rec = sweep(cache_config());
  ASSERT_TRUE(served(rec));
  EXPECT_EQ(rec.result.jain2, 0.973);
}

TEST_F(CacheTest, ClaimLineFromOlderBuildIsSkippedAndCompletionServed) {
  // Older builds leased runs with "claimed" lines. They no longer parse, so
  // resume skips them and serves the completion line that followed.
  const std::string claim = "{\"i\":0,\"id\":\"" + cache_config().id() +
                            "\",\"status\":\"claimed\",\"attempts\":0,\"reps\":0,"
                            "\"s1_bps\":0,\"s2_bps\":0,\"jain2\":0,\"util\":0,\"retx\":0,"
                            "\"rtos\":0,\"worker\":\"w1\",\"lease_until\":1700000060.500,"
                            "\"error\":\"\"}";
  ManifestEntry unused;
  EXPECT_FALSE(SweepManifest::parse_line(claim, &unused));
  write_journal(claim + "\n" + fake_text(cache_config()));
  const RunRecord rec = sweep(cache_config());
  ASSERT_TRUE(served(rec));
  EXPECT_EQ(rec.result.jain2, 0.973);
  EXPECT_EQ(test::latest_entries(manifest_path()).size(), 1u);  // nothing appended
}

}  // namespace
}  // namespace elephant::exp
