#include "exp/sweep.hpp"

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
  // Two runs under one id would share one journal line: resume would serve
  // the first run's numbers as the second's.
  {
    std::vector<std::string_view> sorted(ids.begin(), ids.end());
    std::sort(sorted.begin(), sorted.end());
    const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
    if (dup != sorted.end()) {
      throw std::invalid_argument("sweep lists run id " + std::string(*dup) + " twice");
    }
  }

  std::optional<obs::MetricsRegistry> owned_registry;
  obs::MetricsRegistry* reg = options.metrics;
  if (reg == nullptr && options.stats_interval_s > 0) {
    owned_registry.emplace();
    reg = &*owned_registry;
  }

  // The sweep is the journal's one writer for as long as it runs. Resume
  // reads it once, here: a run with a success line is served from it, every
  // other run is pending.
  SweepManifest journal(options.manifest_path);
  auto unusable = [&](const std::string& why) {
    return std::runtime_error("sweep manifest unusable (" + options.manifest_path.string() +
                              "): " + why);
  };
  if (!journal.ok()) throw unusable(journal.last_error());
  std::vector<std::optional<ManifestEntry>> prior(runs.size());
  if (options.resume) {
    std::string error;
    if (!journal.read_runs(ids, &prior, &error)) throw unusable(error);
  }
  // Guards outcomes/touched/cell_pending while threads run; the pool join is
  // the happens-before edge for the reads after it. A run still untouched
  // after the pool was never attempted (drain).
  std::mutex report_mu;
  std::vector<RunRecord> outcomes(runs.size());
  std::vector<char> touched(runs.size(), 0);
  std::vector<std::size_t> pending;
  // Pending runs of each cell: it is published when its last one is in hand.
  std::vector<std::size_t> cell_pending(configs.size(), 0);
  for (std::size_t k = 0; k < runs.size(); ++k) {
    if (prior[k] && prior[k]->success()) {
      // Served: per-flow detail is not journaled, the aggregates are.
      outcomes[k].status = prior[k]->status;
      outcomes[k].resumed = true;
      outcomes[k].result = prior[k]->result;
      touched[k] = 1;
    } else {
      pending.push_back(k);
      ++cell_pending[k / reps];
    }
  }
  // Progress counts every run and every cell, served ones included, so a
  // resumed sweep ends on total/total like an uninterrupted one.
  const std::size_t served = runs.size() - pending.size();
  std::size_t cells_published = 0;
  if (options.on_result) {
    for (std::size_t cell = 0; cell < configs.size(); ++cell) {
      if (cell_pending[cell] > 0) continue;
      options.on_result(fold_cell(configs[cell], &outcomes[cell * reps], reps).result,
                        ++cells_published, configs.size());
    }
  }

  int threads = options.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  threads = std::max(1, std::min<int>(threads, static_cast<int>(pending.size())));

  std::atomic<std::size_t> done{served};

  std::mutex status_mu;
  std::string current_label;
  obs::Counter* events_total = nullptr;
  if (reg != nullptr) {
    reg->gauge("sweep.cells_total").set(static_cast<double>(runs.size()));
    if (served > 0) {
      reg->counter("sweep.cells_done").add(served);
      reg->counter("sweep.cells_resumed").add(served);
    }
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
      hb.jsonl_path = options.manifest_path.parent_path() / "metrics.jsonl";
    }
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

  // Record run k; once every pending run of its cell is in hand, report the
  // cell through on_result.
  auto publish = [&](std::size_t k, RunRecord rec) {
    done.fetch_add(1);
    if (reg != nullptr) reg->counter("sweep.cells_done").add(1);
    std::lock_guard lock(report_mu);
    outcomes[k] = std::move(rec);
    touched[k] = 1;
    const std::size_t cell = k / reps;
    if (--cell_pending[cell] > 0 || !options.on_result) return;
    options.on_result(fold_cell(configs[cell], &outcomes[cell * reps], reps).result,
                      ++cells_published, configs.size());
  };

  // Threads take pending runs in sweep order through one shared cursor.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    // Drain, or a failed journal write (the sweep then aborts): start nothing.
    while (!cancelled(options) && journal.ok()) {
      const std::size_t at = next.fetch_add(1);
      if (at >= pending.size()) return;
      const std::size_t k = pending[at];
      RunRecord rec = execute_run(k);
      ManifestEntry e;
      e.index = k;
      e.id = ids[k];
      e.status = rec.status;
      e.attempts = rec.attempts;
      e.result = rec.result;
      e.wall_s = rec.wall_s;
      e.error = rec.error;
      journal.append(e);
      publish(k, std::move(rec));
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

  // A drained sweep must not let default-constructed records masquerade as
  // successes: a run no thread reached is kSkipped.
  for (std::size_t k = 0; k < runs.size(); ++k) {
    if (touched[k]) continue;
    outcomes[k].status = RunStatus::kSkipped;
    outcomes[k].error = "not attempted (sweep drained)";
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    report.records[i] = fold_cell(configs[i], &outcomes[i * reps], reps);
  }

  // The final heartbeat snapshot (histograms included) sees the finished
  // counters above; ~Heartbeat would emit it anyway, but stop explicitly so
  // the ordering is visible.
  if (heartbeat) heartbeat->stop();

  // Ghost completions are worse than a dead sweep: if any journal write
  // failed (disk full, unlinked manifest), surface it as an error rather
  // than returning a report whose durable record is silently incomplete.
  if (!journal.ok()) throw unusable(journal.last_error());
  return report;
}

std::filesystem::path default_journal_path() {
  const char* dir = std::getenv("ELEPHANT_RESULTS_DIR");
  return std::filesystem::path(dir != nullptr ? dir : "results") / "runs.jsonl";
}

}  // namespace elephant::exp
