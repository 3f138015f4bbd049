#include "exp/sweep.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "exp/eta.hpp"
#include "exp/work_queue.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"

namespace elephant::exp {

std::vector<ExperimentConfig> make_matrix(
    const std::vector<std::pair<cca::CcaKind, cca::CcaKind>>& pairs,
    const std::vector<aqm::AqmKind>& aqms, const std::vector<double>& buffer_bdps,
    const std::vector<double>& bandwidths, std::uint64_t seed) {
  std::vector<ExperimentConfig> out;
  out.reserve(pairs.size() * aqms.size() * buffer_bdps.size() * bandwidths.size());
  for (const auto& [c1, c2] : pairs) {
    for (const aqm::AqmKind aqm : aqms) {
      for (const double bdp : buffer_bdps) {
        for (const double bw : bandwidths) {
          ExperimentConfig cfg;
          cfg.cca1 = c1;
          cfg.cca2 = c2;
          cfg.aqm = aqm;
          cfg.buffer_bdp = bdp;
          cfg.bottleneck_bps = bw;
          cfg.seed = seed;
          out.push_back(cfg);
        }
      }
    }
  }
  return out;
}

std::size_t SweepReport::count(RunStatus s) const {
  std::size_t n = 0;
  for (const RunRecord& r : records) {
    if (r.status == s) ++n;
  }
  return n;
}

std::size_t SweepReport::completed() const { return count(RunStatus::kOk); }

std::size_t SweepReport::failed() const {
  return count(RunStatus::kFailed) + count(RunStatus::kTimedOut);
}

std::size_t SweepReport::skipped() const { return count(RunStatus::kSkipped); }

namespace {

bool cancelled(const SweepOptions& options) {
  return options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed);
}

/// Sleep for `delay_s`, waking early (returning false) if the sweep is
/// draining. 50 ms slices keep drain latency human-imperceptible.
bool interruptible_sleep(double delay_s, const SweepOptions& options) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(delay_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cancelled(options)) return false;
    const std::chrono::duration<double> remaining =
        deadline - std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::min<std::chrono::duration<double>>(
        remaining, std::chrono::milliseconds(50)));
  }
  return !cancelled(options);
}

/// Simulate one run once, at its own seed, under the sweep's budgets. A
/// throw is caught and recorded: a budget trip as timed out, anything else
/// as failed. The simulator is deterministic, so a failed run is attempted
/// again only by a later resumed sweep, at the same seed, never here.
RunRecord run_one(const ExperimentConfig& run, const SweepOptions& options,
                  obs::MetricsRegistry* run_metrics) {
  ExperimentConfig cfg = run;
  cfg.metrics = run_metrics;
  if (cfg.max_events == 0) cfg.max_events = options.run_event_budget;
  if (cfg.max_wall_seconds == 0) cfg.max_wall_seconds = options.run_wall_budget_seconds;
  RunRecord rec;
  rec.attempts = 1;
  try {
    rec.result = summarize(run_experiment(cfg));
  } catch (const RunTimeout& e) {
    rec.status = RunStatus::kTimedOut;
    rec.error = e.what();
  } catch (const std::exception& e) {
    rec.status = RunStatus::kFailed;
    rec.error = e.what();
  } catch (...) {
    rec.status = RunStatus::kFailed;
    rec.error = "unknown exception";
  }
  return rec;
}

/// Rank for "a cell's status is its worst run's status": ok < skipped
/// (drained) < failed or timed out.
int severity(RunStatus s) {
  return succeeded(s) ? 0 : s == RunStatus::kSkipped ? 1 : 2;
}

/// One cell's record from its runs, in seed order.
RunRecord fold_cell(const ExperimentConfig& cfg, const RunRecord* runs, std::size_t reps) {
  RunRecord cell;
  cell.resumed = true;
  std::vector<AveragedResult> results;
  for (std::size_t r = 0; r < reps; ++r) {
    const RunRecord& run = runs[r];
    if (severity(run.status) > severity(cell.status)) {
      cell.status = run.status;
      cell.error = run.error;
    }
    cell.attempts += run.attempts;
    cell.wall_s += run.wall_s;
    cell.resumed = cell.resumed && run.resumed;
    if (run.success()) results.push_back(run.result);
  }
  if (cell.success()) cell.result = average(cfg, results);
  return cell;
}

}  // namespace

SweepReport run_sweep_resilient(const std::vector<ExperimentConfig>& configs,
                                const SweepOptions& options) {
  if (options.repetitions < 1) {
    throw std::invalid_argument("sweep repetitions must be >= 1, got " +
                                std::to_string(options.repetitions));
  }
  if (options.manifest_path.empty()) {
    throw std::invalid_argument("sweep needs a manifest: the journal is its result store");
  }
  if (!(options.lease_s > 0)) {
    throw std::invalid_argument("sweep lease_s must be > 0, got " +
                                std::to_string(options.lease_s));
  }
  SweepReport report;
  report.records.resize(configs.size());
  if (configs.empty()) return report;

  // The unit of work is one run: run k = i·reps + r of cell i simulates seed
  // derive_seed(cell seed, r) under that config's own id. Stream 0 is the
  // seed itself, so at reps 1 every id and index is the cell's.
  const std::size_t reps = static_cast<std::size_t>(options.repetitions);
  std::vector<ExperimentConfig> runs(configs.size() * reps);
  std::vector<std::string> ids(runs.size());
  for (std::size_t k = 0; k < runs.size(); ++k) {
    runs[k] = configs[k / reps];
    runs[k].seed = sim::derive_seed(runs[k].seed, k % reps);
    ids[k] = runs[k].id();
  }
  // Two runs under one id would share one journal slot: the second is never
  // marked done and the sweep waits on it forever.
  {
    std::vector<std::string_view> sorted(ids.begin(), ids.end());
    std::sort(sorted.begin(), sorted.end());
    const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
    if (dup != sorted.end()) {
      throw std::invalid_argument("sweep lists run id " + std::string(*dup) + " twice");
    }
  }

  // Sweep telemetry registry is provisioned below; the queue wants it at
  // construction, so resolve it first.
  std::optional<obs::MetricsRegistry> owned_registry;
  obs::MetricsRegistry* reg = options.metrics;
  if (reg == nullptr && options.stats_interval_s > 0) {
    owned_registry.emplace();
    reg = &*owned_registry;
  }

  // The sweep is a leased work queue over its journal, so any number of
  // worker processes can share it (see work_queue.hpp).
  std::vector<std::pair<std::size_t, std::string>> cells;
  cells.reserve(runs.size());
  for (std::size_t k = 0; k < runs.size(); ++k) cells.emplace_back(k, ids[k]);
  LeasedWorkQueue::Options qopt;
  qopt.worker_id =
      options.worker_id.empty() ? "pid" + std::to_string(::getpid()) : options.worker_id;
  qopt.lease_s = options.lease_s;
  qopt.resume = options.resume;
  qopt.metrics = reg;
  LeasedWorkQueue queue(options.manifest_path, std::move(cells), std::move(qopt));
  if (!queue.healthy()) {
    // An unusable journal means no durable record of anything this sweep
    // does — fail now, loudly, instead of simulating for hours into a void.
    throw std::runtime_error("sweep manifest unusable (" + options.manifest_path.string() +
                             "): " + queue.error());
  }

  int threads = options.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  threads = std::min<int>(threads, static_cast<int>(runs.size()));

  std::atomic<std::size_t> done{0};
  // Guards outcomes/touched/published while workers run; the pool join is
  // the happens-before edge for the reads after it. Runs still untouched
  // after the pool are filled from the journal (other workers / resume) or
  // marked kSkipped (drain).
  std::mutex report_mu;
  std::vector<RunRecord> outcomes(runs.size());
  std::vector<char> touched(runs.size(), 0);
  std::vector<char> published(configs.size(), 0);
  std::size_t cells_published = 0;

  std::mutex status_mu;
  std::string current_label;
  obs::Counter* events_total = nullptr;
  if (reg != nullptr) {
    reg->gauge("sweep.cells_total").set(static_cast<double>(runs.size()));
    events_total = &reg->counter("sim.events");
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  // ETA from an EWMA of recent run wall times (see eta.hpp): robust to
  // heterogeneous matrices where the lifetime average badly misprices the
  // remaining runs.
  EtaEstimator eta;
  std::optional<obs::Heartbeat> heartbeat;
  if (options.stats_interval_s > 0) {
    obs::Heartbeat::Options hb;
    hb.interval_s = options.stats_interval_s;
    hb.jsonl_path = options.metrics_path;
    if (hb.jsonl_path.empty()) {
      // Per-worker journals when an explicit worker id is in play: N worker
      // processes appending one shared metrics.jsonl would interleave lines.
      const std::string name = options.worker_id.empty()
                                   ? "metrics.jsonl"
                                   : "metrics-" + options.worker_id + ".jsonl";
      hb.jsonl_path = options.manifest_path.parent_path() / name;
    }
    hb.worker_tag = queue.worker_id();
    // Shared-registry histograms change only under merge_from's lock, so
    // live ticks may include them.
    hb.histograms_in_ticks = true;
    heartbeat.emplace(
        *reg, hb,
        [&, total = runs.size()](std::string* fields, std::string* line) {
          const std::size_t d = done.load();
          const double elapsed =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
                  .count();
          const double eta_s = eta.eta_s(d, total, threads);
          const std::uint64_t events = events_total->value();
          const double rate = elapsed > 0 ? static_cast<double>(events) / elapsed : 0;
          std::string cell;
          {
            std::lock_guard lock(status_mu);
            cell = current_label;
          }
          char buf[256];
          std::snprintf(buf, sizeof(buf),
                        "\"cells_done\":%zu,\"cells_total\":%zu,\"eta_s\":%.1f,"
                        "\"event_rate\":%.3g,\"cell\":\"",
                        d, total, eta_s, rate);
          *fields += buf;
          obs::append_json_escaped(cell, fields);
          *fields += "\",";
          std::snprintf(buf, sizeof(buf),
                        "[sweep] %zu/%zu cells, eta %.0fs, %.3g ev/s, running: %s", d,
                        total, eta_s, rate, cell.c_str());
          *line = buf;
        });
    heartbeat->start();
  }

  // Simulate one run into a private registry (histograms are single-writer)
  // and fold the telemetry into the shared one at the run boundary.
  auto execute_run = [&](std::size_t k) -> RunRecord {
    std::optional<obs::MetricsRegistry> local;
    if (reg != nullptr) {
      std::lock_guard lock(status_mu);
      current_label = runs[k].label();
      local.emplace();
    }
    const auto start = std::chrono::steady_clock::now();
    RunRecord rec = run_one(runs[k], options, local ? &*local : nullptr);
    rec.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (local) {
      local->histogram("sweep.cell_wall_s").record(rec.wall_s);
      reg->merge_from(*local);
      if (!rec.success()) reg->counter("sweep.cells_failed").add(1);
    }
    eta.record_cell(rec.wall_s);
    return rec;
  };

  // A run this worker did not execute, as the journal records it: terminal
  // lines only (per-flow detail is not journaled; the aggregates are).
  auto from_journal = [&](std::size_t k) -> std::optional<RunRecord> {
    const std::optional<ManifestEntry> e = queue.latest(ids[k]);
    if (!e || !e->terminal()) return std::nullopt;
    RunRecord rec;
    rec.status = e->status;
    rec.resumed = true;
    rec.error = e->error;
    if (e->success()) rec.result = e->result;
    return rec;
  };

  // Record run k; once every run of its cell is in hand (run here, or a
  // success in the journal), report the cell through on_result.
  auto publish = [&](std::size_t k, RunRecord rec) {
    done.fetch_add(1);
    if (reg != nullptr) reg->counter("sweep.cells_done").add(1);
    std::lock_guard lock(report_mu);
    outcomes[k] = std::move(rec);
    touched[k] = 1;
    const std::size_t cell = k / reps;
    if (!options.on_result || published[cell]) return;
    std::vector<RunRecord> cell_runs;
    for (std::size_t j = cell * reps; j < (cell + 1) * reps; ++j) {
      std::optional<RunRecord> run = touched[j] ? std::optional(outcomes[j]) : from_journal(j);
      if (!run || !(touched[j] || run->success())) return;
      cell_runs.push_back(*std::move(run));
    }
    published[cell] = 1;
    options.on_result(fold_cell(configs[cell], cell_runs.data(), reps).result,
                      ++cells_published, configs.size());
  };

  // The next run for this thread, or nullopt when it should stop. Runs are
  // leased through the shared journal, so any number of processes (and this
  // process's threads) interleave safely.
  auto next_run = [&]() -> std::optional<std::size_t> {
    while (queue.healthy()) {  // a failed journal write aborts the sweep
      std::size_t k = 0;
      switch (queue.try_claim(&k)) {
        case LeasedWorkQueue::Claim::kClaimed:
          return k;
        case LeasedWorkQueue::Claim::kAllDone:
          return std::nullopt;
        case LeasedWorkQueue::Claim::kWaitLeased:
          // Other workers hold every remaining run; poll for steals or
          // completions at a fraction of the lease so takeover is prompt.
          if (!interruptible_sleep(std::clamp(options.lease_s / 4.0, 0.05, 0.5), options)) {
            return std::nullopt;
          }
      }
    }
    return std::nullopt;
  };

  auto worker = [&] {
    while (!cancelled(options)) {  // drain: claim nothing further
      const std::optional<std::size_t> k = next_run();
      if (!k) return;
      RunRecord rec = execute_run(*k);
      ManifestEntry e;
      e.index = *k;
      e.id = ids[*k];
      e.status = rec.status;
      e.attempts = rec.attempts;
      e.result = rec.result;
      e.wall_s = rec.wall_s;
      e.error = rec.error;
      queue.complete(e);
      publish(*k, std::move(rec));
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Fill the runs this worker never ran: from the journal when another
  // worker (or a prior resumed run) produced a terminal outcome, else mark
  // kSkipped — a drained sweep must not let default-constructed records
  // masquerade as successes.
  queue.refresh();
  for (std::size_t k = 0; k < runs.size(); ++k) {
    if (touched[k]) continue;
    if (std::optional<RunRecord> served = from_journal(k)) {
      outcomes[k] = *std::move(served);
      if (reg != nullptr) reg->counter("sweep.cells_resumed").add(1);
    } else {
      outcomes[k].status = RunStatus::kSkipped;
      outcomes[k].error = "not attempted (sweep drained)";
    }
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    report.records[i] = fold_cell(configs[i], &outcomes[i * reps], reps);
  }

  // The final heartbeat snapshot (histograms included) sees the finished
  // counters above; ~Heartbeat would emit it anyway, but stop explicitly so
  // the ordering is visible.
  if (heartbeat) heartbeat->stop();

  // Ghost completions are worse than a dead sweep: if any journal write
  // failed (disk full, unlinked manifest) or a peer journaled a line this
  // build refuses, surface it as an error rather than returning a report
  // whose durable record is silently incomplete.
  if (!queue.healthy()) {
    throw std::runtime_error("sweep aborted: manifest unusable (" +
                             options.manifest_path.string() + "): " + queue.error());
  }
  return report;
}

std::filesystem::path default_journal_path() {
  const char* dir = std::getenv("ELEPHANT_RESULTS_DIR");
  return std::filesystem::path(dir != nullptr ? dir : "results") / "runs.jsonl";
}

}  // namespace elephant::exp
