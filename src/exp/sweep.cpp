#include "exp/sweep.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exp/cache.hpp"
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

std::vector<ExperimentConfig> paper_matrix(std::uint64_t seed) {
  return make_matrix(paper_cca_pairs(), paper_aqms(), paper_buffer_bdps(), paper_bandwidths(),
                     seed);
}

std::size_t SweepReport::count(RunStatus s) const {
  std::size_t n = 0;
  for (const RunRecord& r : records) {
    if (r.status == s) ++n;
  }
  return n;
}

std::size_t SweepReport::completed() const {
  return count(RunStatus::kOk) + count(RunStatus::kRetried);
}

std::size_t SweepReport::failed() const {
  return count(RunStatus::kFailed) + count(RunStatus::kTimedOut);
}

std::size_t SweepReport::skipped() const { return count(RunStatus::kSkipped); }

double retry_backoff_s(std::uint64_t seed, int attempt, double base_s) {
  if (base_s <= 0 || attempt <= 0) return 0;
  // Cap the exponent: past 2^20 the sweep has bigger problems than jitter.
  const double expo = base_s * std::ldexp(1.0, std::min(attempt - 1, 20));
  const std::uint64_t r =
      sim::derive_seed(seed, 0x300000000ULL + static_cast<std::uint64_t>(attempt));
  const double u = static_cast<double>(r >> 11) * 0x1.0p-53;  // uniform [0, 1)
  return expo * (0.5 + u);
}

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

/// Execute one cell with isolation: budgets applied, failures caught, up to
/// `max_retries` reseeded re-attempts for plain failures, each preceded by
/// exponential backoff with deterministic jitter (a crash from transient
/// host pressure — OOM, disk stall — deserves breathing room, and jitter
/// decorrelates workers retrying neighboring cells). Budget trips are
/// deterministic, so retrying them would just burn the same budget again.
RunRecord run_cell(const ExperimentConfig& base, const SweepOptions& options,
                   obs::MetricsRegistry* cell_metrics) {
  RunRecord rec;
  for (int attempt = 0; attempt <= options.max_retries; ++attempt) {
    if (attempt > 0 &&
        !interruptible_sleep(retry_backoff_s(base.seed, attempt, options.backoff_base_s),
                             options)) {
      return rec;  // drained mid-backoff: report the last failure as-is
    }
    ExperimentConfig cfg = base;
    cfg.metrics = cell_metrics;
    if (cfg.max_events == 0) cfg.max_events = options.run_event_budget;
    if (cfg.max_wall_seconds == 0) cfg.max_wall_seconds = options.run_wall_budget_seconds;
    // Reseed retries: a crash tied to one RNG stream (e.g. a pathological
    // packet interleaving) should not condemn the cell. The seed is part of
    // the cache id, so a retry never collides with the failed attempt.
    // Attempt 0 is stream 0 (the configured seed); retries draw from a
    // dedicated sub-stream block so they can never collide with
    // run_averaged's repetition streams of the same base seed.
    cfg.seed = attempt == 0 ? base.seed
                            : sim::derive_seed(base.seed,
                                               0x100000000ULL + static_cast<std::uint64_t>(attempt));
    rec.attempts = attempt + 1;
    try {
      rec.result = run_averaged(cfg, options.repetitions, options.use_cache);
      rec.status = attempt == 0 ? RunStatus::kOk : RunStatus::kRetried;
      rec.error.clear();
      return rec;
    } catch (const RunTimeout& e) {
      rec.status = RunStatus::kTimedOut;
      rec.error = e.what();
      return rec;
    } catch (const std::exception& e) {
      rec.status = RunStatus::kFailed;
      rec.error = e.what();
    } catch (...) {
      rec.status = RunStatus::kFailed;
      rec.error = "unknown exception";
    }
  }
  return rec;
}

}  // namespace

SweepReport run_sweep_resilient(const std::vector<ExperimentConfig>& configs,
                                const SweepOptions& options) {
  SweepReport report;
  report.records.resize(configs.size());
  if (configs.empty()) return report;

  std::vector<std::string> ids;
  ids.reserve(configs.size());
  for (const ExperimentConfig& cfg : configs) ids.push_back(cfg.id());

  // Sweep telemetry registry is provisioned below; the queue wants it at
  // construction, so resolve it first.
  std::optional<obs::MetricsRegistry> owned_registry;
  obs::MetricsRegistry* reg = options.metrics;
  if (reg == nullptr && options.stats_interval_s > 0) {
    owned_registry.emplace();
    reg = &*owned_registry;
  }

  // A manifest makes the sweep a leased work queue over its journal, so any
  // number of worker processes can share it (see work_queue.hpp).
  std::optional<LeasedWorkQueue> queue;
  if (!options.manifest_path.empty()) {
    if (!(options.lease_s > 0)) {
      throw std::invalid_argument("sweep lease_s must be > 0, got " +
                                  std::to_string(options.lease_s));
    }
    std::vector<std::pair<std::size_t, std::string>> cells;
    cells.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) cells.emplace_back(i, ids[i]);
    LeasedWorkQueue::Options qopt;
    qopt.worker_id =
        options.worker_id.empty() ? "pid" + std::to_string(::getpid()) : options.worker_id;
    qopt.lease_s = options.lease_s;
    qopt.resume = options.resume;
    qopt.metrics = reg;
    queue.emplace(options.manifest_path, std::move(cells), std::move(qopt));
    if (!queue->healthy()) {
      // An unusable journal means no durable record of anything this sweep
      // does — fail now, loudly, instead of simulating for hours into a void.
      throw std::runtime_error("sweep manifest unusable (" + options.manifest_path.string() +
                               "): " + queue->manifest().last_error());
    }
  }

  int threads = options.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  threads = std::min<int>(threads, static_cast<int>(configs.size()));

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex report_mu;
  // Cells resolved by this worker's own threads; set before the pool joins,
  // read after — the join is the happens-before edge. Everything still false
  // after the run is filled from the journal (other workers / resume) or
  // marked kSkipped (drain).
  std::vector<char> touched(configs.size(), 0);

  const std::uint64_t cache_hits0 = ResultCache::global().hits();
  const std::uint64_t cache_misses0 = ResultCache::global().misses();
  std::mutex status_mu;
  std::string current_label;
  obs::Counter* events_total = nullptr;
  if (reg != nullptr) {
    reg->gauge("sweep.cells_total").set(static_cast<double>(configs.size()));
    events_total = &reg->counter("sim.events");
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  // ETA from an EWMA of recent cell wall times (see eta.hpp): robust to a
  // warm-cache prefix and to heterogeneous matrices where the lifetime
  // average badly misprices the remaining cells.
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
      hb.jsonl_path = options.manifest_path.empty()
                          ? std::filesystem::path(name)
                          : options.manifest_path.parent_path() / name;
    }
    if (queue) hb.worker_tag = queue->worker_id();
    // Shared-registry histograms change only under merge_from's lock, so
    // live ticks may include them.
    hb.histograms_in_ticks = true;
    heartbeat.emplace(
        *reg, hb,
        [&, total = configs.size()](std::string* fields, std::string* line) {
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
                        "\"event_rate\":%.3g,\"cache_hits\":%" PRIu64 ",\"cell\":\"",
                        d, total, eta_s, rate,
                        ResultCache::global().hits() - cache_hits0);
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

  // Simulate one cell into a private registry (histograms are single-writer)
  // and fold the telemetry into the shared one at the cell boundary.
  auto execute_cell = [&](std::size_t i) -> RunRecord {
    std::optional<obs::MetricsRegistry> local;
    if (reg != nullptr) {
      std::lock_guard lock(status_mu);
      current_label = configs[i].label();
      local.emplace();
    }
    const auto cell_start = std::chrono::steady_clock::now();
    RunRecord rec = run_cell(configs[i], options, local ? &*local : nullptr);
    rec.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - cell_start).count();
    if (local) {
      local
          ->histogram("sweep.cell_wall_s",
                      "Wall seconds per sweep cell (all attempts, this worker)")
          .record(rec.wall_s);
      reg->merge_from(*local);
      if (rec.attempts > 1) reg->counter("sweep.retries").add(rec.attempts - 1);
      if (!rec.success()) reg->counter("sweep.cells_failed").add(1);
    }
    eta.record_cell(rec.wall_s);
    return rec;
  };

  auto publish = [&](std::size_t i, const RunRecord& rec) {
    touched[i] = 1;
    const std::size_t d = done.fetch_add(1) + 1;
    if (reg != nullptr) reg->counter("sweep.cells_done").add(1);
    if (options.on_result) {
      std::lock_guard lock(report_mu);
      options.on_result(rec.result, d, configs.size());
    }
  };

  // The next cell for this thread, or nullopt when it should stop. With a
  // manifest, cells are leased through the shared journal, so any number of
  // processes (and this process's threads) interleave safely; without one,
  // an atomic counter scans the configs in order.
  auto next_cell = [&]() -> std::optional<std::size_t> {
    if (!queue) {
      const std::size_t i = next.fetch_add(1);
      return i < configs.size() ? std::optional(i) : std::nullopt;
    }
    while (queue->healthy()) {  // a failed journal write aborts the sweep
      std::size_t i = 0;
      switch (queue->try_claim(&i)) {
        case LeasedWorkQueue::Claim::kClaimed:
          return i;
        case LeasedWorkQueue::Claim::kAllDone:
          return std::nullopt;
        case LeasedWorkQueue::Claim::kWaitLeased:
          // Other workers hold every remaining cell; poll for steals or
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
      const std::optional<std::size_t> i = next_cell();
      if (!i) return;
      RunRecord& rec = report.records[*i];
      rec = execute_cell(*i);
      if (queue) {
        ManifestEntry e;
        e.index = *i;
        e.id = ids[*i];
        e.status = rec.status;
        e.attempts = rec.attempts;
        e.result = rec.result;
        e.wall_s = rec.wall_s;
        e.error = rec.error;
        queue->complete(e);
      }
      publish(*i, rec);
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

  // Fill report slots this worker never ran: from the journal when another
  // worker (or a prior resumed run) produced a terminal outcome, else mark
  // kSkipped — a drained sweep must not let default-constructed records
  // masquerade as successes.
  if (queue) queue->refresh();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (touched[i]) continue;
    RunRecord& rec = report.records[i];
    const std::optional<ManifestEntry> e = queue ? queue->latest(ids[i]) : std::nullopt;
    if (e && e->terminal()) {
      rec.status = e->status;
      rec.attempts = 0;
      rec.resumed = true;
      rec.error = e->error;
      if (e->success()) {
        // Per-flow detail is not journaled; the sweep-level aggregates are.
        rec.result = e->result;
        rec.result.config = configs[i];
      }
      if (reg != nullptr) reg->counter("sweep.cells_resumed").add(1);
    } else {
      rec.status = RunStatus::kSkipped;
      rec.error = "not attempted (sweep drained)";
    }
  }

  if (reg != nullptr) {
    reg->counter("sweep.cache_hits").add(ResultCache::global().hits() - cache_hits0);
    reg->counter("sweep.cache_misses").add(ResultCache::global().misses() - cache_misses0);
  }
  // The final heartbeat snapshot (histograms included) sees the finished
  // counters above; ~Heartbeat would emit it anyway, but stop explicitly so
  // the ordering is visible.
  if (heartbeat) heartbeat->stop();

  // Ghost completions are worse than a dead sweep: if any journal write
  // failed (disk full, unlinked manifest), surface it as an error rather
  // than returning a report whose durable record is silently incomplete.
  if (queue && !queue->healthy()) {
    throw std::runtime_error("sweep aborted: manifest write failed (" +
                             options.manifest_path.string() +
                             "): " + queue->manifest().last_error());
  }
  return report;
}

}  // namespace elephant::exp
