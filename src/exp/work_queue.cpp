#include "exp/work_queue.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.hpp"

namespace elephant::exp {

namespace {

/// Wall-clock seconds. Leases arbitrate between processes on one host, so
/// the shared system clock (not a per-process steady clock) is the one
/// meaningful time base for expiry.
double unix_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

LeasedWorkQueue::LeasedWorkQueue(std::filesystem::path manifest_path,
                                 std::vector<std::pair<std::size_t, std::string>> cells,
                                 Options options)
    : manifest_(std::move(manifest_path)),
      options_(std::move(options)),
      cells_(std::move(cells)) {
  state_.resize(cells_.size());
  slot_by_id_.reserve(cells_.size());
  for (std::size_t slot = 0; slot < cells_.size(); ++slot) {
    slot_by_id_.emplace(cells_[slot].second, slot);
  }
  {
    std::lock_guard g(mu_);
    SweepManifest::ScopedLock fl(manifest_);
    if (options_.resume) {
      // Startup snapshot: prior successes are done, prior failures become
      // retryable, live claims from concurrent workers are honored.
      fold_new_locked(/*startup=*/true);
    } else if (manifest_.fd() >= 0) {
      // Non-resume keeps today's "re-run everything" semantics: records
      // written before this worker started are invisible. The cursor skip
      // happens under the flock so a claim landing concurrently with our
      // startup is still seen by the first fold.
      struct stat st;
      if (::fstat(manifest_.fd(), &st) == 0) cursor_ = st.st_size;
    }
  }
  renewer_ = std::thread([this] { renew_loop(); });
}

LeasedWorkQueue::~LeasedWorkQueue() {
  {
    std::lock_guard g(mu_);
    stopping_ = true;
  }
  renew_cv_.notify_all();
  if (renewer_.joinable()) renewer_.join();
  // Normal convergence completes every held cell; leases left behind here
  // are an abort path. Expire them so other workers need not wait.
  release_all();
}

void LeasedWorkQueue::apply_locked(const ManifestEntry& e, bool startup) {
  // Success is terminal: a stale claim (a worker that raced a finished cell,
  // or a steal journaled just before the victim's completion landed) must
  // not hide a recorded result from latest().
  const auto lit = latest_.find(e.id);
  const bool prior_success = lit != latest_.end() && lit->second.success();
  if (!(e.status == RunStatus::kClaimed && prior_success)) latest_[e.id] = e;

  const auto sit = slot_by_id_.find(e.id);
  if (sit == slot_by_id_.end()) return;  // foreign id (journal shared with another slice)
  CellState& s = state_[sit->second];
  if (s.phase == Phase::kDone && s.success) return;
  if (e.status == RunStatus::kClaimed) {
    s.phase = Phase::kLeased;
    s.worker = e.worker;
    s.lease_until = e.lease_until_unix_s;
  } else if (startup && !e.success()) {
    // Resume rule: a failure journaled by a *previous* run gets one more
    // chance. Failures recorded during this run stay terminal, so workers
    // do not ping-pong a poisoned cell forever.
    s.phase = Phase::kUnclaimed;
    s.worker.clear();
  } else {
    s.phase = Phase::kDone;
    s.success = e.success();
  }
}

ManifestEntry LeasedWorkQueue::claim_entry(std::size_t slot, double lease_until) const {
  ManifestEntry c;
  c.index = cells_[slot].first;
  c.id = cells_[slot].second;
  c.status = RunStatus::kClaimed;
  c.attempts = 0;
  c.worker = options_.worker_id;
  c.lease_until_unix_s = lease_until;
  return c;
}

void LeasedWorkQueue::fold_new_locked(bool startup) {
  const int fd = manifest_.fd();
  if (fd < 0) return;
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= cursor_) return;
  std::string buf(static_cast<std::size_t>(st.st_size - cursor_), '\0');
  std::size_t got = 0;
  while (got < buf.size()) {
    const ssize_t r = ::pread(fd, buf.data() + got, buf.size() - got,
                              cursor_ + static_cast<off_t>(got));
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  buf.resize(got);
  // Consume complete lines only. A crashed writer's unterminated fragment
  // stays unconsumed until a later append's tail repair terminates it (the
  // fragment then folds as one unparseable, skipped line).
  std::size_t consumed = 0;
  for (std::size_t pos = 0;;) {
    const std::size_t nl = buf.find('\n', pos);
    if (nl == std::string::npos) break;
    ManifestEntry e;
    if (SweepManifest::parse_line(buf.substr(pos, nl - pos), &e)) {
      if (e.success() && e.result.repetitions != 1 && slot_by_id_.count(e.id) != 0) {
        // Served as this id's run it would pass a multi-run mean (or a
        // made-up reps:0 result) off as one seed's numbers.
        if (refused_.empty()) {
          refused_ = "refusing line " + std::to_string(line_number_at(cursor_ + pos)) + " of " +
                     manifest_.path().string() + ": success for \"" + e.id + "\" with reps " +
                     std::to_string(e.result.repetitions) +
                     "; each journal line must hold one run (reps 1)";
        }
      } else {
        apply_locked(e, startup);
      }
    }
    pos = nl + 1;
    consumed = pos;
  }
  cursor_ += static_cast<off_t>(consumed);
}

std::size_t LeasedWorkQueue::line_number_at(off_t offset) const {
  std::size_t line = 1;
  char chunk[4096];
  for (off_t at = 0; at < offset;) {
    const ssize_t r = ::pread(manifest_.fd(), chunk,
                              static_cast<std::size_t>(std::min<off_t>(sizeof(chunk), offset - at)),
                              at);
    if (r <= 0) break;
    line += static_cast<std::size_t>(std::count(chunk, chunk + r, '\n'));
    at += r;
  }
  return line;
}

bool LeasedWorkQueue::healthy() const {
  std::lock_guard g(mu_);
  return refused_.empty() && manifest_.ok();
}

std::string LeasedWorkQueue::error() const {
  std::lock_guard g(mu_);
  return refused_.empty() ? manifest_.last_error() : refused_;
}

void LeasedWorkQueue::publish_held_locked() {
  if (options_.metrics != nullptr) {
    options_.metrics->gauge("sweep.leases_held").set(static_cast<double>(held_.size()));
  }
}

LeasedWorkQueue::Claim LeasedWorkQueue::try_claim(std::size_t* index) {
  std::lock_guard g(mu_);
  SweepManifest::ScopedLock fl(manifest_);
  fold_new_locked(/*startup=*/false);
  if (!refused_.empty()) return Claim::kWaitLeased;  // unhealthy: the caller stops
  const double now = unix_now();
  const std::size_t npos = cells_.size();
  std::size_t pick = npos;
  // Only another worker's live lease is worth waiting for: the runs this
  // worker holds are kept alive by the renewer and completed by the threads
  // running them, so a thread with nothing else to claim can stop.
  bool foreign_lease = false;
  for (std::size_t slot = 0; slot < cells_.size(); ++slot) {
    CellState& s = state_[slot];
    if (s.phase == Phase::kLeased && s.lease_until <= now) {
      s.phase = Phase::kUnclaimed;  // expired: stealable (keep s.worker for accounting)
    }
    if (s.phase == Phase::kUnclaimed) {
      pick = slot;
      break;
    }
    foreign_lease = foreign_lease || (s.phase == Phase::kLeased && held_.count(slot) == 0);
  }
  if (pick == npos) return foreign_lease ? Claim::kWaitLeased : Claim::kAllDone;

  const ManifestEntry c = claim_entry(pick, now + options_.lease_s);
  if (!manifest_.append_locked(c)) {
    // Journal write failed (disk full, ...). Claiming without a durable
    // claim record would break exactly-once; surface through healthy().
    return Claim::kWaitLeased;
  }
  const bool stolen = !state_[pick].worker.empty() && state_[pick].worker != options_.worker_id;
  state_[pick].phase = Phase::kLeased;
  state_[pick].worker = options_.worker_id;
  state_[pick].lease_until = c.lease_until_unix_s;
  held_.insert(pick);
  if (options_.metrics != nullptr) {
    options_.metrics->counter("sweep.leases_acquired").add(1);
    if (stolen) options_.metrics->counter("sweep.leases_stolen").add(1);
  }
  publish_held_locked();
  *index = cells_[pick].first;
  return Claim::kClaimed;
}

bool LeasedWorkQueue::complete(const ManifestEntry& e) {
  std::lock_guard g(mu_);
  SweepManifest::ScopedLock fl(manifest_);
  fold_new_locked(/*startup=*/false);
  const auto sit = slot_by_id_.find(e.id);
  if (sit == slot_by_id_.end()) return false;
  CellState& s = state_[sit->second];
  held_.erase(sit->second);
  publish_held_locked();
  if (s.phase == Phase::kDone && s.success) {
    // Another worker's success landed while we were running (our lease was
    // stolen by an impatient peer, then both finished). The results are
    // bit-identical by determinism; keep the journal at exactly one
    // completion per cell and drop ours.
    if (options_.metrics != nullptr) {
      options_.metrics->counter("sweep.completions_dropped").add(1);
    }
    return false;
  }
  if (!manifest_.append_locked(e)) return false;
  s.phase = Phase::kDone;
  s.success = e.success();
  latest_[e.id] = e;
  return true;
}

void LeasedWorkQueue::release_all() {
  std::lock_guard g(mu_);
  if (held_.empty()) return;
  SweepManifest::ScopedLock fl(manifest_);
  const std::size_t released = held_.size();
  for (const std::size_t slot : held_) {
    // Zero expiry: already expired, so instantly stealable.
    (void)manifest_.append_locked(claim_entry(slot, 0));
    state_[slot].phase = Phase::kUnclaimed;
    state_[slot].worker.clear();
  }
  held_.clear();
  if (options_.metrics != nullptr) {
    options_.metrics->counter("sweep.leases_released").add(released);
  }
  publish_held_locked();
}

void LeasedWorkQueue::refresh() {
  std::lock_guard g(mu_);
  SweepManifest::ScopedLock fl(manifest_);
  fold_new_locked(/*startup=*/false);
}

std::optional<ManifestEntry> LeasedWorkQueue::latest(const std::string& id) const {
  std::lock_guard g(mu_);
  const auto it = latest_.find(id);
  if (it == latest_.end()) return std::nullopt;
  return it->second;
}

void LeasedWorkQueue::renew_loop() {
  std::unique_lock lk(mu_);
  while (!stopping_) {
    const auto period =
        std::chrono::duration<double>(std::max(options_.lease_s / 3.0, 0.02));
    if (renew_cv_.wait_for(lk, period, [this] { return stopping_; })) break;
    if (held_.empty()) continue;
    SweepManifest::ScopedLock fl(manifest_);
    const double until = unix_now() + options_.lease_s;
    for (const std::size_t slot : held_) {
      // A failed write leaves the queue unhealthy; the sweep will abort.
      if (!manifest_.append_locked(claim_entry(slot, until))) break;
      state_[slot].lease_until = until;
    }
    if (options_.metrics != nullptr) {
      options_.metrics->counter("sweep.leases_renewed").add(held_.size());
    }
  }
}

}  // namespace elephant::exp
