#include "exp/work_queue.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "exp/manifest.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace elephant::exp {
namespace {

class WorkQueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("elephant_work_queue_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::filesystem::path manifest_path() const { return dir_ / "m.jsonl"; }

  static std::vector<std::pair<std::size_t, std::string>> cells(int n) {
    std::vector<std::pair<std::size_t, std::string>> out;
    for (int i = 0; i < n; ++i) {
      out.emplace_back(static_cast<std::size_t>(i), "cell-" + std::to_string(i));
    }
    return out;
  }

  static ManifestEntry success(std::size_t index, const std::string& id) {
    ManifestEntry e;
    e.index = index;
    e.id = id;
    e.status = RunStatus::kOk;
    e.attempts = 1;
    e.result.repetitions = 1;  // one run per line; other success lines are refused
    e.result.jain2 = 0.5 + static_cast<double>(index) * 0.01;
    return e;
  }

  /// Raw line scan: terminal (non-claimed) lines per id, no folding.
  std::map<std::string, int> terminal_counts() const {
    std::map<std::string, int> counts;
    std::ifstream in(manifest_path());
    std::string line;
    while (std::getline(in, line)) {
      ManifestEntry e;
      if (SweepManifest::parse_line(line, &e) && e.status != RunStatus::kClaimed) {
        counts[e.id]++;
      }
    }
    return counts;
  }

  std::filesystem::path dir_;
};

TEST_F(WorkQueueTest, ClaimsInSweepOrderThenReportsAllDone) {
  LeasedWorkQueue::Options opt;
  opt.worker_id = "w0";
  opt.lease_s = 60;
  LeasedWorkQueue q(manifest_path(), cells(3), opt);

  for (std::size_t want = 0; want < 3; ++want) {
    std::size_t got = 99;
    ASSERT_EQ(q.try_claim(&got), LeasedWorkQueue::Claim::kClaimed);
    EXPECT_EQ(got, want);
    EXPECT_TRUE(q.complete(success(got, "cell-" + std::to_string(got))));
  }
  std::size_t unused = 0;
  EXPECT_EQ(q.try_claim(&unused), LeasedWorkQueue::Claim::kAllDone);
}

TEST_F(WorkQueueTest, OwnLeasesDoNotStallSiblingThreads) {
  // Every unfinished cell is leased by this worker: its renewer keeps the
  // leases alive and the threads holding them finish them, so a sibling
  // thread asking for more work is done rather than told to poll.
  LeasedWorkQueue::Options opt;
  opt.worker_id = "w0";
  opt.lease_s = 60;
  LeasedWorkQueue q(manifest_path(), cells(2), opt);
  std::size_t got = 99;
  ASSERT_EQ(q.try_claim(&got), LeasedWorkQueue::Claim::kClaimed);
  ASSERT_EQ(q.try_claim(&got), LeasedWorkQueue::Claim::kClaimed);
  EXPECT_EQ(q.try_claim(&got), LeasedWorkQueue::Claim::kAllDone);
}

TEST_F(WorkQueueTest, LiveLeaseBlocksOtherWorkersExpiredLeaseIsStolen) {
  // A foreign claim with a live lease parks the cell; one with an expired
  // lease is stolen (the dead-worker takeover path), counted as a steal.
  ManifestEntry live;
  live.index = 0;
  live.id = "cell-0";
  live.status = RunStatus::kClaimed;
  live.worker = "other";
  live.lease_until_unix_s = 4e9;  // far future
  ManifestEntry dead = live;
  dead.index = 1;
  dead.id = "cell-1";
  dead.lease_until_unix_s = 1;  // 1970: long expired
  ASSERT_TRUE(test::append_journal(manifest_path(), {live, dead}));

  obs::MetricsRegistry reg;
  LeasedWorkQueue::Options opt;
  opt.worker_id = "w0";
  opt.lease_s = 60;
  opt.resume = true;  // fold the pre-existing claims
  opt.metrics = &reg;
  LeasedWorkQueue q(manifest_path(), cells(2), opt);

  std::size_t got = 99;
  ASSERT_EQ(q.try_claim(&got), LeasedWorkQueue::Claim::kClaimed);
  EXPECT_EQ(got, 1u);  // the expired one, stolen
  EXPECT_EQ(reg.counter("sweep.leases_stolen").value(), 1u);
  EXPECT_TRUE(q.complete(success(1, "cell-1")));

  // cell-0's lease is live: nothing claimable, but not done either.
  EXPECT_EQ(q.try_claim(&got), LeasedWorkQueue::Claim::kWaitLeased);
}

TEST_F(WorkQueueTest, DuplicateCompletionIsDroppedAfterForeignSuccess) {
  obs::MetricsRegistry reg;
  LeasedWorkQueue::Options opt;
  opt.worker_id = "w0";
  opt.lease_s = 60;
  opt.metrics = &reg;
  LeasedWorkQueue q(manifest_path(), cells(1), opt);

  std::size_t got = 99;
  ASSERT_EQ(q.try_claim(&got), LeasedWorkQueue::Claim::kClaimed);

  // While "we" run the cell, a peer that stole our lease finishes it first.
  ASSERT_TRUE(test::append_journal(manifest_path(), {success(0, "cell-0")}));

  EXPECT_FALSE(q.complete(success(0, "cell-0")));  // dropped, not re-journaled
  EXPECT_EQ(reg.counter("sweep.completions_dropped").value(), 1u);
  EXPECT_EQ(terminal_counts()["cell-0"], 1);  // exactly one completion line
}

TEST_F(WorkQueueTest, LoadFoldsInterleavedClaimAndCompleteRecords) {
  // The resume fold must treat claims as transient: a claim before a success
  // is superseded, a claim *after* a success never shadows it, and a cell
  // with only an (expired or not) claim surfaces as kClaimed.
  ManifestEntry claim_a;
  claim_a.index = 0;
  claim_a.id = "a";
  claim_a.status = RunStatus::kClaimed;
  claim_a.worker = "w1";
  claim_a.lease_until_unix_s = 4e9;
  ManifestEntry claim_b = claim_a;
  claim_b.index = 1;
  claim_b.id = "b";
  claim_b.lease_until_unix_s = 1;  // expired, never completed
  ManifestEntry claim_c = claim_a;
  claim_c.index = 2;
  claim_c.id = "c";
  ASSERT_TRUE(test::append_journal(manifest_path(),
                                   {claim_a, success(0, "a"),  // success supersedes the claim
                                    claim_b, success(2, "c"),
                                    claim_c}));  // stale claim after the success: ignored

  LeasedWorkQueue::Options opt;
  opt.worker_id = "w0";
  opt.resume = true;
  const LeasedWorkQueue q(manifest_path(), {{0, "a"}, {1, "b"}, {2, "c"}, {3, "d"}}, opt);
  ASSERT_TRUE(q.latest("a").has_value());
  ASSERT_TRUE(q.latest("b").has_value());
  ASSERT_TRUE(q.latest("c").has_value());
  EXPECT_FALSE(q.latest("d").has_value());  // never journaled
  EXPECT_EQ(q.latest("a")->status, RunStatus::kOk);
  EXPECT_EQ(q.latest("b")->status, RunStatus::kClaimed);
  EXPECT_EQ(q.latest("b")->worker, "w1");
  EXPECT_EQ(q.latest("c")->status, RunStatus::kOk);  // success is terminal
}

TEST_F(WorkQueueTest, FreshQueueRerunsPriorRecordsResumeHonorsThem) {
  ASSERT_TRUE(test::append_journal(manifest_path(), {success(0, "cell-0")}));

  LeasedWorkQueue::Options fresh;
  fresh.worker_id = "w0";
  fresh.lease_s = 60;
  {
    // Without resume, records that predate the queue are invisible: the cell
    // is claimed and re-run (today's "re-run everything" semantics).
    LeasedWorkQueue q(manifest_path(), cells(1), fresh);
    std::size_t got = 99;
    EXPECT_EQ(q.try_claim(&got), LeasedWorkQueue::Claim::kClaimed);
    EXPECT_EQ(got, 0u);
    EXPECT_TRUE(q.complete(success(0, "cell-0")));
  }

  LeasedWorkQueue::Options resume = fresh;
  resume.worker_id = "w1";
  resume.resume = true;
  LeasedWorkQueue q(manifest_path(), cells(1), resume);
  std::size_t got = 99;
  EXPECT_EQ(q.try_claim(&got), LeasedWorkQueue::Claim::kAllDone);
  const auto latest = q.latest("cell-0");
  ASSERT_TRUE(latest.has_value());
  EXPECT_TRUE(latest->success());
}

TEST_F(WorkQueueTest, ReleaseAllMakesHeldCellsInstantlyStealable) {
  LeasedWorkQueue::Options opt;
  opt.worker_id = "w0";
  opt.lease_s = 3600;  // far too long to expire naturally in this test
  LeasedWorkQueue a(manifest_path(), cells(1), opt);
  std::size_t got = 99;
  ASSERT_EQ(a.try_claim(&got), LeasedWorkQueue::Claim::kClaimed);
  a.release_all();

  LeasedWorkQueue::Options opt_b = opt;
  opt_b.worker_id = "w1";
  opt_b.resume = true;
  LeasedWorkQueue b(manifest_path(), cells(1), opt_b);
  EXPECT_EQ(b.try_claim(&got), LeasedWorkQueue::Claim::kClaimed);
  EXPECT_EQ(got, 0u);
  EXPECT_TRUE(b.complete(success(0, "cell-0")));
}

TEST_F(WorkQueueTest, CrashResumeRerunsExactlyInflightAndUnclaimedCells) {
  // The crash-resume e2e: cell-0 completed by a previous run; a worker is
  // SIGKILLed while *holding* cell-1; resume must re-run exactly cell-1
  // (after lease expiry) and the never-claimed cell-2 — and nothing else.
  ASSERT_TRUE(test::append_journal(manifest_path(), {success(0, "cell-0")}));

  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Worker process: claim the first eligible cell, signal, then hang as a
    // stand-in for a long simulation until SIGKILL arrives.
    ::close(ready[0]);
    LeasedWorkQueue::Options opt;
    opt.worker_id = "doomed";
    opt.lease_s = 0.2;
    opt.resume = true;
    LeasedWorkQueue q(manifest_path(), cells(3), opt);
    std::size_t got = 99;
    if (q.try_claim(&got) != LeasedWorkQueue::Claim::kClaimed || got != 1) {
      ::_exit(1);
    }
    const char byte = 'r';
    (void)!::write(ready[1], &byte, 1);
    std::this_thread::sleep_for(std::chrono::seconds(30));
    ::_exit(2);  // unreachable: SIGKILL lands first
  }

  ::close(ready[1]);
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);  // child holds cell-1's lease
  ::close(ready[0]);
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  ASSERT_EQ(::waitpid(child, nullptr, 0), child);

  LeasedWorkQueue::Options opt;
  opt.worker_id = "survivor";
  opt.lease_s = 60;
  opt.resume = true;
  LeasedWorkQueue q(manifest_path(), cells(3), opt);

  std::vector<std::size_t> ran;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    std::size_t got = 99;
    const auto claim = q.try_claim(&got);
    if (claim == LeasedWorkQueue::Claim::kAllDone) break;
    if (claim == LeasedWorkQueue::Claim::kWaitLeased) {
      // cell-1's orphaned lease (0.2 s) has not expired yet.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    ran.push_back(got);
    EXPECT_TRUE(q.complete(success(got, "cell-" + std::to_string(got))));
  }

  // Exactly the in-flight cell (stolen from the dead worker) and the
  // never-claimed cell — the order depends on when the orphan lease expires,
  // because the survivor rightly starts on cell-2 rather than waiting.
  std::sort(ran.begin(), ran.end());
  ASSERT_EQ(ran.size(), 2u);
  EXPECT_EQ(ran[0], 1u);
  EXPECT_EQ(ran[1], 2u);
  const auto counts = terminal_counts();
  EXPECT_EQ(counts.at("cell-0"), 1);
  EXPECT_EQ(counts.at("cell-1"), 1);
  EXPECT_EQ(counts.at("cell-2"), 1);
}

TEST_F(WorkQueueTest, ConcurrentWorkersConvergeExactlyOnce) {
  constexpr int kCells = 12;
  auto work = [&](const std::string& worker_id, int* completions) {
    LeasedWorkQueue::Options opt;
    opt.worker_id = worker_id;
    opt.lease_s = 60;
    opt.resume = true;
    LeasedWorkQueue q(manifest_path(), cells(kCells), opt);
    while (true) {
      std::size_t got = 99;
      const auto claim = q.try_claim(&got);
      if (claim == LeasedWorkQueue::Claim::kAllDone) return;
      if (claim == LeasedWorkQueue::Claim::kWaitLeased) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));  // "simulate"
      if (q.complete(success(got, "cell-" + std::to_string(got)))) ++*completions;
    }
  };

  int done_a = 0;
  int done_b = 0;
  std::thread a(work, "wa", &done_a);
  std::thread b(work, "wb", &done_b);
  a.join();
  b.join();

  EXPECT_EQ(done_a + done_b, kCells);
  const auto counts = terminal_counts();
  ASSERT_EQ(counts.size(), static_cast<std::size_t>(kCells));
  for (const auto& [id, n] : counts) EXPECT_EQ(n, 1) << id;
}

TEST_F(WorkQueueTest, SuccessLineWithOtherRepsIsRefusedByLine) {
  // A per-cell multi-rep success line (or a made-up reps:0 one) would be
  // served as one run's numbers; the queue refuses it and names the line.
  for (const int reps : {5, 0}) {
    ManifestEntry multi = success(1, "cell-1");
    multi.result.repetitions = reps;
    {
      std::ofstream out(manifest_path(), std::ios::trunc);
      out << SweepManifest::format_line(success(0, "cell-0")) << '\n'
          << SweepManifest::format_line(multi) << '\n';
    }
    LeasedWorkQueue::Options opt;
    opt.worker_id = "w0";
    opt.resume = true;
    LeasedWorkQueue q(manifest_path(), cells(3), opt);
    EXPECT_FALSE(q.healthy()) << "reps " << reps;
    EXPECT_NE(q.error().find("line 2 of " + manifest_path().string()), std::string::npos)
        << q.error();
    EXPECT_NE(q.error().find("\"cell-1\" with reps " + std::to_string(reps)),
              std::string::npos)
        << q.error();
    std::size_t got = 99;
    EXPECT_EQ(q.try_claim(&got), LeasedWorkQueue::Claim::kWaitLeased);
    EXPECT_EQ(got, 99u);
  }
}

TEST_F(WorkQueueTest, RefusalIgnoresForeignIdsAndFailureLines) {
  // Only a success this queue would serve is refused: a multi-rep line for
  // an id outside the sweep, or a failure line (reps 0 by format), is fine.
  ManifestEntry foreign = success(9, "other-sweep-cell");
  foreign.result.repetitions = 5;
  ManifestEntry failed;
  failed.index = 0;
  failed.id = "cell-0";
  failed.status = RunStatus::kFailed;
  ASSERT_TRUE(test::append_journal(manifest_path(), {foreign, failed}));
  LeasedWorkQueue::Options opt;
  opt.worker_id = "w0";
  opt.resume = true;
  LeasedWorkQueue q(manifest_path(), cells(1), opt);
  EXPECT_TRUE(q.healthy()) << q.error();
  std::size_t got = 99;
  EXPECT_EQ(q.try_claim(&got), LeasedWorkQueue::Claim::kClaimed);
  EXPECT_EQ(got, 0u);
}

}  // namespace
}  // namespace elephant::exp
