// elephant — command-line front end for the experiment harness.
//
//   elephant run   [--cca1 K] [--cca2 K] [--aqm A] [--bdp X] [--bw BPS]
//                  [--flows N] [--duration S] [--seed S] [--rtt MS]
//                  [--loss P] [--ecn] [--reps N]
//                  [--fault-loss T:RATE:DUR] [--fault-flap T:DOWN_MS:COUNT]
//                  [--workload PRESET] [--workload-cdf FILE]
//                  [--stats-interval S] [--metrics FILE]
//   elephant sweep [--aqm A] [--bw BPS] [--pairs inter|intra|all] [--reps N]
//                  [--threads N] [--event-budget N]
//                  [--wall-budget S] [--manifest PATH] [--resume]
//                  [--worker-id ID] [--lease-s S]
//                  [--fault-loss T:RATE:DUR] [--fault-flap T:DOWN_MS:COUNT]
//                  [--workload PRESET] [--workload-cdf FILE]
//                  [--stats-interval S] [--metrics FILE]
//   elephant report --manifest PATH ...  (merge a sweep's journals)
//   elephant list  (CCAs, AQMs, workload presets, and the paper's axis values)
//
// --workload mixes extra traffic classes (mice, Poisson web transfers, on/off
// sources) in with the paper's elephants; per-class FCT percentiles and byte
// shares are printed under the main row. --workload-cdf replaces the finite
// classes' size distribution with an empirical CDF file of
// "<bytes> <cum_prob>" lines.
//
// `run` prints one row and always simulates; `sweep` prints a table over all
// buffer sizes for the selected slice. Sweeps run under the resilient
// engine: a crashing or budget-tripping run is reported and skipped, and
// every run — one (config, seed) pair, `--reps` of them per cell — is
// journaled as one JSONL line. The journal is the only result store:
// --manifest names it, and --resume (which needs --manifest) re-executes
// only runs without a successful journal line; a journaled failure is
// attempted again at its own seed (each run is one attempt per sweep).
// Without --manifest a sweep journals to $ELEPHANT_RESULTS_DIR/runs.jsonl
// (default results/) and resumes from it, so repeated sweeps and the bench
// programs share runs.
// A success line whose "reps" is not 1 is refused (exit 1): each line must
// hold exactly one run. --reps and ELEPHANT_REPS must be integers >= 1.
//
// A manifest always makes the sweep a crash-tolerant shared work queue:
// start N `elephant sweep ... --manifest M --resume --worker-id wK` processes
// on one host and they divide the runs through per-run leases in the
// journal (a SIGKILLed worker's in-flight runs are stolen after --lease-s,
// which must be a number > 0).
// SIGINT/SIGTERM drain gracefully: the in-flight run finishes and is
// journaled, nothing new is claimed, and the exit code reports the drain.
//
// sweep exit codes: 0 all cells succeeded; 1 some cells permanently failed
// (or the sweep aborted, e.g. manifest unwritable); 2 usage error; 3 drained
// by signal with cells left unattempted.
//
// Numeric flags are strict: a value that is not a finite number in the
// flag's range (--bdp, --bw and --duration > 0; an integer for counts, seeds,
// budgets and --rtt) is a usage error naming the flag.
//
// --stats-interval S enables the self-profiling heartbeat: every S seconds
// of wall time one JSON snapshot of the runtime metrics (event counts, queue
// sojourn/srtt histograms, sweep progress and ETA) is appended to the
// --metrics file (default metrics.jsonl, next to the manifest for sweeps)
// and a progress line is printed to stderr.

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <array>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <limits>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

#include <filesystem>
#include <fstream>

#include "exp/config.hpp"
#include "exp/report.hpp"
#include "exp/result_digest.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace elephant;

/// Graceful-drain flag, set by SIGINT/SIGTERM. The sweep engine polls it:
/// in-flight cells finish and are journaled, nothing further is claimed.
std::atomic<bool> g_cancel{false};

extern "C" void on_drain_signal(int) {
  if (g_cancel.exchange(true)) {
    // Second signal: the user really means it. 130 = interrupted.
    ::_exit(130);
  }
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: elephant <run|sweep|report|list> [options]\n"
               "  run   --cca1 bbr1 --cca2 cubic --aqm fifo --bdp 2 --bw 1e9\n"
               "        [--flows N] [--duration S] [--seed S] [--rtt MS]\n"
               "        [--loss P] [--ecn] [--reps N]\n"
               "        [--fault-loss T:RATE:DUR] [--fault-flap T:DOWN_MS:COUNT]\n"
               "        [--workload paper|mice-elephants|poisson-web|onoff]\n"
               "        [--workload-cdf FILE]\n"
               "        [--stats-interval S] [--metrics FILE]\n"
               "  sweep --aqm fifo --bw 1e9 [--pairs inter|intra|all] [--reps N]\n"
               "        [--threads N] [--event-budget N]\n"
               "        [--wall-budget S] [--manifest PATH] [--resume]\n"
               "        [--worker-id ID] [--lease-s S]\n"
               "        [--fault-loss T:RATE:DUR] [--fault-flap T:DOWN_MS:COUNT]\n"
               "        [--workload PRESET] [--workload-cdf FILE]\n"
               "        [--stats-interval S] [--metrics FILE]\n"
               "  report --manifest PATH [--metrics FILE ...] [--json FILE]\n"
               "        [--md FILE] [--top N]\n"
               "  list\n"
               "fairness episodes (run and sweep): --episodes turns on the windowed\n"
               "share-imbalance detector; --episode-window S, --episode-enter J,\n"
               "--episode-exit J tune it; --episodes-out FILE appends episodes.jsonl\n"
               "(run only). Episode knobs are part of the cell identity (journal id).\n"
               "report: merge a sweep's manifest + per-worker metrics journals +\n"
               "episode summaries into one document (markdown to stdout; --json and\n"
               "--md write files; --metrics may repeat, default: metrics*.jsonl next\n"
               "to the manifest).\n"
               "run --check-digest N: execute the cell N times and fail (exit 1) with a\n"
               "field-level diff if any repetition's metrics digest drifts.\n"
               "sweep --manifest: runs are leased through the journal, so N sweeps\n"
               "with the same --manifest plus --resume and unique --worker-id values\n"
               "share the work, and a killed worker's cells are re-claimed after\n"
               "--lease-s (> 0, default 60). --resume requires --manifest and\n"
               "re-attempts failed runs at their own seed. Without --manifest,\n"
               "sweep journals to $ELEPHANT_RESULTS_DIR/runs.jsonl and resumes\n"
               "from it. --reps (or ELEPHANT_REPS) must be an integer >= 1.\n"
               "numeric flags are strict: a value outside the flag's range, or a\n"
               "non-integer count, seed or budget, is a usage error.\n"
               "exit codes: 0 ok, 1 failed cells or abort, 2 usage, 3 signal drain\n");
  std::exit(2);
}

/// The value of `flag` (naming `what` in it) as one finite number in
/// [lo, hi]; anything else is a usage error.
double bounded_number(const char* flag, const char* what, std::string_view text, double lo,
                      double hi) {
  double v = 0;
  if (!obs::json::scan_number(text, &v) || !std::isfinite(v) || v < lo || v > hi) {
    std::fprintf(stderr, "%s: %s '%.*s' is not a finite number in [%g, %g]\n", flag, what,
                 static_cast<int>(text.size()), text.data(), lo, hi);
    std::exit(2);
  }
  return v;
}

/// bounded_number over (0, hi]: a rate, size or span that must be > 0.
double positive_number(const char* flag, const char* what, std::string_view text, double hi) {
  const double v = bounded_number(flag, what, text, 0, hi);
  if (v <= 0) {
    std::fprintf(stderr, "%s: %s must be > 0\n", flag, what);
    std::exit(2);
  }
  return v;
}

/// The integer twin of bounded_number: the whole of `text` as a decimal
/// integer in [lo, hi]; anything else is a usage error.
template <typename Int>
Int bounded_integer(const char* flag, const char* what, std::string_view text, Int lo,
                    Int hi) {
  Int v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || stop != end || v < lo || v > hi) {
    std::fprintf(stderr, "%s: %s '%.*s' is not an integer in [%s, %s]\n", flag, what,
                 static_cast<int>(text.size()), text.data(), std::to_string(lo).c_str(),
                 std::to_string(hi).c_str());
    std::exit(2);
  }
  return v;
}

constexpr std::uint64_t kAnyCount = std::numeric_limits<std::uint64_t>::max();

/// The three ':'-separated fields of a fault spec; any other shape is a
/// usage error.
std::array<std::string_view, 3> three_fields(std::string_view spec) {
  const std::size_t a1 = spec.find(':');
  const std::size_t a2 = a1 == spec.npos ? spec.npos : spec.find(':', a1 + 1);
  if (a2 == spec.npos) usage();
  return {spec.substr(0, a1), spec.substr(a1 + 1, a2 - a1 - 1), spec.substr(a2 + 1)};
}

struct Args {
  std::string cmd;
  exp::ExperimentConfig cfg;
  std::string pairs = "all";
  int reps = 0;  ///< 0 until --reps or ELEPHANT_REPS sets it
  int threads = 0;
  std::uint64_t event_budget = 0;
  double wall_budget_s = 0;
  std::string manifest;
  bool resume = false;
  std::string worker_id;
  double lease_s = 60;
  double stats_interval_s = 0;
  std::string metrics_path;
  std::vector<std::string> report_metrics;  ///< explicit journals for `report`
  std::string report_json;
  std::string report_md;
  std::size_t report_top = 10;
  int check_digest = 0;
};

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.cmd = argv[1];
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage();
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--cca1")) {
      a.cfg.cca1 = cca::cca_kind_from_string(need(i));
    } else if (!std::strcmp(arg, "--cca2")) {
      a.cfg.cca2 = cca::cca_kind_from_string(need(i));
    } else if (!std::strcmp(arg, "--aqm")) {
      a.cfg.aqm = aqm::aqm_kind_from_string(need(i));
    } else if (!std::strcmp(arg, "--bdp")) {
      a.cfg.buffer_bdp = positive_number("--bdp", "buffer", need(i), 1e6);
    } else if (!std::strcmp(arg, "--bw")) {
      a.cfg.bottleneck_bps = positive_number("--bw", "rate", need(i), 1e13);
    } else if (!std::strcmp(arg, "--flows")) {
      a.cfg.total_flows =
          bounded_integer<std::uint32_t>("--flows", "count", need(i), 1, 1u << 20);
    } else if (!std::strcmp(arg, "--duration")) {
      a.cfg.duration =
          sim::Time::seconds(positive_number("--duration", "seconds", need(i), 1e9));
    } else if (!std::strcmp(arg, "--seed")) {
      a.cfg.seed = bounded_integer<std::uint64_t>("--seed", "seed", need(i), 0, kAnyCount);
    } else if (!std::strcmp(arg, "--rtt")) {
      a.cfg.rtt = sim::Time::milliseconds(
          bounded_integer<std::int64_t>("--rtt", "ms", need(i), 1, 100000));
    } else if (!std::strcmp(arg, "--loss")) {
      a.cfg.random_loss = bounded_number("--loss", "rate", need(i), 0, 1);
    } else if (!std::strcmp(arg, "--ecn")) {
      a.cfg.ecn = true;
    } else if (!std::strcmp(arg, "--reps")) {
      const char* text = need(i);
      if (!exp::parse_repetitions(text, &a.reps)) {
        std::fprintf(stderr, "--reps: '%s' is not an integer >= 1\n", text);
        std::exit(2);
      }
    } else if (!std::strcmp(arg, "--pairs")) {
      a.pairs = need(i);
    } else if (!std::strcmp(arg, "--threads")) {
      a.threads = bounded_integer("--threads", "count", need(i), 0, 1024);
    } else if (!std::strcmp(arg, "--event-budget")) {
      a.event_budget =
          bounded_integer<std::uint64_t>("--event-budget", "events", need(i), 0, kAnyCount);
    } else if (!std::strcmp(arg, "--wall-budget")) {
      a.wall_budget_s = bounded_number("--wall-budget", "seconds", need(i), 0, 1e9);
    } else if (!std::strcmp(arg, "--manifest")) {
      a.manifest = need(i);
    } else if (!std::strcmp(arg, "--resume")) {
      a.resume = true;
    } else if (!std::strcmp(arg, "--worker-id")) {
      a.worker_id = need(i);
    } else if (!std::strcmp(arg, "--lease-s")) {
      a.lease_s = positive_number("--lease-s", "lease", need(i), 1e9);
    } else if (!std::strcmp(arg, "--stats-interval")) {
      a.stats_interval_s = bounded_number("--stats-interval", "seconds", need(i), 0, 1e9);
    } else if (!std::strcmp(arg, "--metrics")) {
      a.metrics_path = need(i);
      a.report_metrics.push_back(a.metrics_path);  // `report` accepts repeats
    } else if (!std::strcmp(arg, "--episodes")) {
      a.cfg.episodes.enabled = true;
    } else if (!std::strcmp(arg, "--episode-window")) {
      a.cfg.episodes.enabled = true;
      a.cfg.episodes.window_s = positive_number("--episode-window", "seconds", need(i), 1e9);
    } else if (!std::strcmp(arg, "--episode-enter")) {
      a.cfg.episodes.enabled = true;
      a.cfg.episodes.enter_jain =
          bounded_number("--episode-enter", "Jain index", need(i), 0, 1);
    } else if (!std::strcmp(arg, "--episode-exit")) {
      a.cfg.episodes.enabled = true;
      a.cfg.episodes.exit_jain = bounded_number("--episode-exit", "Jain index", need(i), 0, 1);
    } else if (!std::strcmp(arg, "--episodes-out")) {
      a.cfg.episodes.enabled = true;
      a.cfg.episodes.jsonl_path = need(i);
    } else if (!std::strcmp(arg, "--json")) {
      a.report_json = need(i);
    } else if (!std::strcmp(arg, "--md")) {
      a.report_md = need(i);
    } else if (!std::strcmp(arg, "--top")) {
      a.report_top = bounded_integer<std::size_t>("--top", "count", need(i), 0, 1u << 20);
    } else if (!std::strcmp(arg, "--fault-loss")) {
      // T:RATE:DUR, exactly three fields.
      const auto f = three_fields(need(i));
      const double start = bounded_number("--fault-loss", "T", f[0], 0, 1e9);
      const double rate = bounded_number("--fault-loss", "RATE", f[1], 0, 1);
      const double dur = bounded_number("--fault-loss", "DUR", f[2], 0, 1e9);
      for (const fault::FaultEvent& e :
           fault::FaultPlan::loss_burst(sim::Time::seconds(start), rate,
                                        sim::Time::seconds(dur))
               .events) {
        a.cfg.fault_plan.add(e);
      }
    } else if (!std::strcmp(arg, "--fault-flap")) {
      // T:DOWN_MS:COUNT, exactly three fields.
      const auto f = three_fields(need(i));
      const double start = bounded_number("--fault-flap", "T", f[0], 0, 1e9);
      const double down_ms = bounded_number("--fault-flap", "DOWN_MS", f[1], 0, 1e9);
      const int count = bounded_integer("--fault-flap", "COUNT", f[2], 1, 1000000);
      for (const fault::FaultEvent& e :
           fault::FaultPlan::link_flap(sim::Time::seconds(start),
                                       sim::Time::seconds(down_ms / 1e3), count)
               .events) {
        a.cfg.fault_plan.add(e);
      }
    } else if (!std::strcmp(arg, "--check-digest")) {
      a.check_digest = bounded_integer("--check-digest", "runs", need(i), 2, 1000000);
    } else if (!std::strcmp(arg, "--workload")) {
      const char* name = need(i);
      if (!workload::WorkloadSpec::from_name(name, &a.cfg.workload)) {
        std::fprintf(stderr, "unknown workload preset: %s (try:", name);
        for (const std::string& p : workload::WorkloadSpec::preset_names()) {
          std::fprintf(stderr, " %s", p.c_str());
        }
        std::fprintf(stderr, ")\n");
        std::exit(2);
      }
    } else if (!std::strcmp(arg, "--workload-cdf")) {
      const char* path = need(i);
      workload::SizeSpec spec;
      std::string error;
      if (!workload::SizeSpec::load_cdf_file(path, &spec, &error)) {
        std::fprintf(stderr, "--workload-cdf: %s\n", error.c_str());
        std::exit(2);
      }
      bool applied = false;
      for (workload::TrafficClass& c : a.cfg.workload.classes) {
        if (c.kind != workload::ClassKind::kElephant) {
          c.size = spec;
          applied = true;
        }
      }
      if (!applied) {
        std::fprintf(stderr,
                     "--workload-cdf: no finite/on-off class to apply it to "
                     "(pass --workload first)\n");
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage();
    }
  }
  // The env knobs are read here so a junk value is a usage error, not a
  // silent default.
  try {
    if (a.reps == 0 && (a.cmd == "run" || a.cmd == "sweep")) {
      a.reps = exp::default_repetitions();
    }
    (void)exp::duration_scale();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  if (a.cfg.episodes.enabled && !a.cfg.episodes.valid()) {
    std::fprintf(stderr,
                 "invalid episode thresholds: need window > 0 and "
                 "0 < enter <= exit <= 1 (got window=%g enter=%g exit=%g)\n",
                 a.cfg.episodes.window_s, a.cfg.episodes.enter_jain,
                 a.cfg.episodes.exit_jain);
    std::exit(2);
  }
  return a;
}

void print_row(const exp::AveragedResult& res) {
  std::printf("%-34s S1=%9.2fM S2=%9.2fM J=%6.3f util=%6.3f retx=%9.0f rtos=%5.0f\n",
              res.config.label().c_str(), res.sender_bps[0] / 1e6, res.sender_bps[1] / 1e6,
              res.jain2, res.utilization, res.retx_segments, res.rtos);
  for (const exp::ClassResult& c : res.classes) {
    std::printf("  class %-12s flows=%u done=%u share=%5.3f jain=%5.3f bps=%9.2fM",
                c.name.c_str(), c.flows, c.completed, c.share, c.jain,
                c.throughput_bps / 1e6);
    if (c.completed > 0) {
      std::printf(" fct_p50=%.1fms p95=%.1fms p99=%.1fms slowdown_p50=%.2f p99=%.2f",
                  c.fct_p50_s * 1e3, c.fct_p95_s * 1e3, c.fct_p99_s * 1e3, c.slowdown_p50,
                  c.slowdown_p99);
    }
    std::printf("\n");
  }
  if (res.episodes > 0) {
    std::printf(
        "  episodes %.1f/rep  worst_jain=%5.3f at t=%.1fs victim=flow%u cause=%s\n",
        res.episodes, res.episode_worst_jain, res.episode_worst_t_s,
        res.episode_victim, res.episode_cause.c_str());
  } else if (res.config.episodes.enabled) {
    std::printf("  episodes: none detected\n");
  }
}

/// --check-digest N: run the identical cell N times and require every
/// repetition's metrics digest to be bit-identical to the first. A mismatch
/// prints a field-level diff (which metric drifted, both values) instead of
/// two opaque hashes, and exits nonzero — the determinism smoke a user can
/// point at any configuration, not just the golden-pinned ones.
int cmd_check_digest(const Args& a) {
  const exp::ExperimentResult first = exp::run_experiment(a.cfg);
  const std::uint64_t want = exp::metrics_digest(first);
  for (int rep = 2; rep <= a.check_digest; ++rep) {
    const exp::ExperimentResult res = exp::run_experiment(a.cfg);
    const std::uint64_t got = exp::metrics_digest(res);
    if (got == want) continue;
    std::fprintf(stderr,
                 "check-digest: run %d of %s diverged (digest %016llx != %016llx):\n",
                 rep, a.cfg.id().c_str(), static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    for (const std::string& line : exp::diff_results(first, res)) {
      std::fprintf(stderr, "  %s\n", line.c_str());
    }
    return 1;
  }
  std::printf("check-digest: %d runs of %s bit-identical (digest %016llx)\n",
              a.check_digest, a.cfg.id().c_str(), static_cast<unsigned long long>(want));
  return 0;
}

int cmd_run(const Args& a) {
  if (a.check_digest != 0) return cmd_check_digest(a);
  if (a.stats_interval_s <= 0) {
    print_row(exp::run_averaged(a.cfg, a.reps));
    return 0;
  }
  // Heartbeat for a single run: counters/gauges are atomics, safe to
  // snapshot while the simulation thread runs; histograms are written
  // lock-free by that thread, so live ticks exclude them (the final
  // snapshot after the run includes everything).
  obs::MetricsRegistry reg;
  exp::ExperimentConfig cfg = a.cfg;
  cfg.metrics = &reg;
  obs::Heartbeat::Options hb;
  hb.interval_s = a.stats_interval_s;
  hb.jsonl_path = a.metrics_path.empty() ? "metrics.jsonl" : a.metrics_path;
  obs::Heartbeat heartbeat(reg, hb);
  heartbeat.start();
  print_row(exp::run_averaged(cfg, a.reps));
  heartbeat.stop();
  return 0;
}

int cmd_sweep(const Args& a) {
  if (a.resume && a.manifest.empty()) {
    std::fprintf(stderr, "sweep: --resume needs --manifest PATH to resume from\n");
    return 2;
  }
  std::vector<std::pair<cca::CcaKind, cca::CcaKind>> pairs;
  for (const auto& p : exp::paper_cca_pairs()) {
    const bool intra = p.first == p.second;
    if (a.pairs == "all" || (a.pairs == "intra" && intra) ||
        (a.pairs == "inter" && !intra)) {
      pairs.push_back(p);
    }
  }
  const auto& bdps = exp::paper_buffer_bdps();
  std::vector<exp::ExperimentConfig> configs;
  configs.reserve(pairs.size() * bdps.size());
  for (const auto& [c1, c2] : pairs) {
    for (const double bdp : bdps) {
      exp::ExperimentConfig cfg = a.cfg;
      cfg.cca1 = c1;
      cfg.cca2 = c2;
      cfg.buffer_bdp = bdp;
      configs.push_back(cfg);
    }
  }

  exp::SweepOptions opts;
  opts.repetitions = a.reps;
  opts.threads = a.threads;
  opts.run_event_budget = a.event_budget;
  opts.run_wall_budget_seconds = a.wall_budget_s;
  // The journal is the result store: without --manifest, runs land in (and
  // resume from) the shared default journal.
  opts.manifest_path = a.manifest.empty() ? exp::default_journal_path()
                                          : std::filesystem::path(a.manifest);
  opts.resume = a.resume || a.manifest.empty();
  opts.worker_id = a.worker_id;
  opts.lease_s = a.lease_s;
  opts.cancel = &g_cancel;
  opts.stats_interval_s = a.stats_interval_s;
  opts.metrics_path = a.metrics_path;
  // The heartbeat's own progress lines replace the carriage-return ticker
  // (interleaving the two garbles the terminal).
  if (a.stats_interval_s <= 0) {
    opts.on_result = [](const exp::AveragedResult&, std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\r%zu/%zu cells", done, total);
      if (done == total) std::fprintf(stderr, "\n");
    };
  }
  const exp::SweepReport report = exp::run_sweep_resilient(configs, opts);

  std::printf("%-18s", "pair \\ buffer");
  for (const double bdp : bdps) std::printf("  %6g BDP", bdp);
  std::printf("   (Jain index, %s @ %s)\n", aqm::to_string(a.cfg.aqm).c_str(),
              exp::bw_label(a.cfg.bottleneck_bps).c_str());
  std::size_t i = 0;
  for (const auto& [c1, c2] : pairs) {
    std::printf("%-18s", (cca::to_string(c1) + " vs " + cca::to_string(c2)).c_str());
    for (std::size_t b = 0; b < bdps.size(); ++b, ++i) {
      const exp::RunRecord& rec = report.records[i];
      if (rec.success()) {
        std::printf("  %10.3f", rec.result.jain2);
      } else if (rec.status == exp::RunStatus::kSkipped) {
        std::printf("  %10s", "-");
      } else {
        std::printf("  %10s", rec.status == exp::RunStatus::kTimedOut ? "t/o" : "fail");
      }
    }
    std::printf("\n");
  }

  std::printf("sweep: %zu ok, %zu failed, %zu timed out", report.count(exp::RunStatus::kOk),
              report.count(exp::RunStatus::kFailed),
              report.count(exp::RunStatus::kTimedOut));
  if (report.skipped() > 0) std::printf(", %zu skipped", report.skipped());
  if (!a.manifest.empty()) {
    std::size_t resumed = 0;
    for (const auto& rec : report.records) resumed += rec.resumed ? 1 : 0;
    if (resumed > 0 || a.resume) {
      std::printf(" (%zu resumed from %s)", resumed, a.manifest.c_str());
    }
  }
  std::printf("\n");
  for (std::size_t k = 0; k < report.records.size(); ++k) {
    const exp::RunRecord& rec = report.records[k];
    if (!rec.success() && rec.status != exp::RunStatus::kSkipped) {
      std::fprintf(stderr, "  cell %zu [%s]: %s\n", k, configs[k].label().c_str(),
                   rec.error.c_str());
    }
  }
  if (report.failed() > 0) {
    std::fprintf(stderr, "sweep: %zu cells permanently failed\n", report.failed());
    return 1;
  }
  if (report.skipped() > 0) {
    std::fprintf(stderr, "sweep: drained by signal, %zu cells not attempted\n",
                 report.skipped());
    return 3;
  }
  return 0;
}

int cmd_report(const Args& a) {
  if (a.manifest.empty()) {
    std::fprintf(stderr, "report: --manifest PATH is required\n");
    return 2;
  }
  exp::ReportOptions opt;
  opt.manifest_path = a.manifest;
  for (const std::string& p : a.report_metrics) opt.metrics_paths.emplace_back(p);
  opt.top_n = a.report_top;
  exp::SweepSummary summary;
  std::string error;
  if (!exp::build_report(opt, &summary, &error)) {
    std::fprintf(stderr, "report: %s\n", error.c_str());
    return 1;
  }
  auto write_file = [](const std::string& path, const std::string& text,
                       const char* what) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "report: cannot write %s file %s\n", what, path.c_str());
      return false;
    }
    return true;
  };
  if (!a.report_json.empty() &&
      !write_file(a.report_json, exp::render_report_json(summary) + "\n", "json")) {
    return 1;
  }
  const std::string md = exp::render_report_markdown(summary);
  if (!a.report_md.empty() && !write_file(a.report_md, md, "markdown")) return 1;
  std::fputs(md.c_str(), stdout);
  return 0;
}

int cmd_list() {
  std::printf("CCAs: reno cubic htcp bbr1 bbr2\n");
  std::printf("AQMs: fifo red fq_codel codel red_adaptive pie\n");
  std::printf("paper bandwidths:");
  for (const double bw : exp::paper_bandwidths()) {
    std::printf(" %s", exp::bw_label(bw).c_str());
  }
  std::printf("\npaper buffers (BDP):");
  for (const double bdp : exp::paper_buffer_bdps()) std::printf(" %g", bdp);
  std::printf("\npaper flow counts:");
  for (const double bw : exp::paper_bandwidths()) {
    std::printf(" %u", exp::ExperimentConfig::paper_flows_for(bw));
  }
  std::printf("\nworkload presets:");
  for (const std::string& p : workload::WorkloadSpec::preset_names()) {
    std::printf(" %s", p.c_str());
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.cmd == "run") {
    try {
      return cmd_run(a);
    } catch (const std::exception& e) {
      // E.g. an invariant violation: a dead cell is an error, not a row.
      std::fprintf(stderr, "run: fatal: %s\n", e.what());
      return 1;
    }
  }
  if (a.cmd == "sweep") {
    std::signal(SIGINT, on_drain_signal);
    std::signal(SIGTERM, on_drain_signal);
    try {
      return cmd_sweep(a);
    } catch (const std::exception& e) {
      // E.g. an unwritable manifest: better a loud nonzero exit than a sweep
      // whose durable record silently went nowhere.
      std::fprintf(stderr, "sweep: fatal: %s\n", e.what());
      return 1;
    }
  }
  if (a.cmd == "report") {
    try {
      return cmd_report(a);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "report: fatal: %s\n", e.what());
      return 1;
    }
  }
  if (a.cmd == "list") return cmd_list();
  usage();
}
