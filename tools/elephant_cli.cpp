// elephant — command-line front end for the experiment harness.
//
//   elephant run   [--cca1 K] [--cca2 K] [--aqm A] [--bdp X] [--bw BPS]
//                  [--flows N] [--duration S] [--seed S] [--rtt MS]
//                  [--loss P] [--ecn] [--reps N]
//                  [--fault-loss T:RATE:DUR] [--fault-flap T:DOWN_MS:COUNT]
//                  [--workload PRESET]
//                  [--stats-interval S] [--metrics FILE]
//   elephant sweep [--aqm A] [--bw BPS] [--pairs inter|intra|all] [--reps N]
//                  [--threads N] [--event-budget N]
//                  [--wall-budget S] [--manifest PATH] [--resume]
//                  [--fault-loss T:RATE:DUR] [--fault-flap T:DOWN_MS:COUNT]
//                  [--workload PRESET]
//                  [--stats-interval S] [--metrics FILE]
//   elephant claims [--reps N] [--threads N] [--md FILE]
//   elephant report --manifest PATH ...  (summarize a sweep's journals)
//   elephant list  (CCAs, AQMs, workload presets, and the paper's axis values)
//
// --workload mice-elephants mixes 40 staggered, Pareto-sized CUBIC mice in
// with the paper's elephants; per-class FCT percentiles and byte shares are
// printed under the main row. --workload paper (the default) runs the
// elephants alone.
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
// (default results/) and resumes from it, so repeated sweeps and the claims
// ledger share runs.
// A success line whose "reps" is not 1 is refused (exit 1): each line must
// hold exactly one run. --reps must be an integer >= 1.
//
// `claims` runs the paper-claims ledger (exp/claims.hpp): every claim's cells
// at --reps seeds through the default journal, one markdown row per claim
// with its seed vote, to stdout and to --md FILE. Exit 1 if a run fails; a
// claim that does not hold is a row, not an error.
//
// A sweep is the only writer of its journal while it runs: a second sweep on
// a journal in use exits 1 naming it. A killed sweep loses at most its
// in-flight runs; --resume simulates only what the journal lacks.
// SIGINT/SIGTERM drain gracefully: the in-flight run finishes and is
// journaled, nothing new is started, and the exit code reports the drain.
//
// Each command reads only its own flags: a flag another command reads (say
// `list --reps 3`) is a usage error naming the flag and the command, as is a
// --pairs other than inter, intra or all.
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

#include <algorithm>
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

#include "exp/claims.hpp"
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
/// in-flight runs finish and are journaled, nothing further is started.
std::atomic<bool> g_cancel{false};

extern "C" void on_drain_signal(int) {
  if (g_cancel.exchange(true)) {
    // Second signal: the user really means it. 130 = interrupted.
    ::_exit(130);
  }
}

/// The commands that read a cell flag (see parse()).
constexpr std::string_view kCell = "run sweep";

/// True when `cmd` is one of the space-separated words of `readers`.
bool lists_command(std::string_view readers, std::string_view cmd) {
  while (!readers.empty()) {
    const std::size_t end = std::min(readers.find(' '), readers.size());
    if (readers.substr(0, end) == cmd) return true;
    readers.remove_prefix(std::min(end + 1, readers.size()));
  }
  return false;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: elephant <run|sweep|claims|report|list> [options]\n"
               "  run   --cca1 bbr1 --cca2 cubic --aqm fifo --bdp 2 --bw 1e9\n"
               "        [--flows N] [--duration S] [--seed S] [--rtt MS]\n"
               "        [--loss P] [--ecn] [--reps N]\n"
               "        [--fault-loss T:RATE:DUR] [--fault-flap T:DOWN_MS:COUNT]\n"
               "        [--workload paper|mice-elephants]\n"
               "        [--stats-interval S] [--metrics FILE]\n"
               "  sweep --aqm fifo --bw 1e9 [--pairs inter|intra|all] [--reps N]\n"
               "        [--threads N] [--event-budget N]\n"
               "        [--wall-budget S] [--manifest PATH] [--resume]\n"
               "        [--fault-loss T:RATE:DUR] [--fault-flap T:DOWN_MS:COUNT]\n"
               "        [--workload PRESET]\n"
               "        [--stats-interval S] [--metrics FILE]\n"
               "  claims [--reps N] [--threads N] [--md FILE]\n"
               "  report --manifest PATH [--metrics FILE] [--json FILE]\n"
               "        [--md FILE] [--top N]\n"
               "  list\n"
               "fairness episodes (run and sweep): --episodes turns on the windowed\n"
               "share-imbalance detector; --episode-window S, --episode-enter J,\n"
               "--episode-exit J tune it; --episodes-out FILE appends episodes.jsonl.\n"
               "Episode knobs are part of the cell identity (journal id).\n"
               "report: merge a sweep's manifest + metrics journal + episode\n"
               "summaries into one document (markdown to stdout; --json and --md\n"
               "write files; --metrics defaults to metrics.jsonl next to the\n"
               "manifest).\n"
               "run --check-digest N: execute the cell N times and fail (exit 1) with a\n"
               "field-level diff if any repetition's metrics digest drifts.\n"
               "sweep --manifest: one sweep at a time writes a journal (a second one\n"
               "exits 1). --resume requires --manifest, simulates only the runs the\n"
               "journal lacks and re-attempts failed runs at their own seed.\n"
               "Without --manifest, sweep journals to $ELEPHANT_RESULTS_DIR/runs.jsonl\n"
               "and resumes from it. --reps must be an integer >= 1.\n"
               "claims: vote every paper claim over --reps seeds (default 1), run\n"
               "through the same default journal; markdown to stdout and --md.\n"
               "numeric flags are strict: a value outside the flag's range, or a\n"
               "non-integer count, seed or budget, is a usage error; so is a flag\n"
               "the command does not read.\n"
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
  int reps = 1;
  int threads = 0;
  std::uint64_t event_budget = 0;
  double wall_budget_s = 0;
  std::string manifest;
  bool resume = false;
  double stats_interval_s = 0;
  std::string metrics_path;
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
  if (a.cmd != "run" && a.cmd != "sweep" && a.cmd != "claims" && a.cmd != "report" &&
      a.cmd != "list") {
    usage();
  }
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    // True when arg is `name`. A command that is not among `readers` (the
    // space-separated commands that read the flag) refuses it: exit 2
    // naming both, rather than a silently ignored flag.
    auto flag = [&](const char* name, std::string_view readers) {
      if (std::strcmp(arg, name) != 0) return false;
      if (!lists_command(readers, a.cmd)) {
        std::fprintf(stderr, "%s: option %s is not read by this command (read by: %.*s)\n",
                     a.cmd.c_str(), name, static_cast<int>(readers.size()), readers.data());
        std::exit(2);
      }
      return true;
    };
    if (flag("--cca1", "run")) {
      a.cfg.cca1 = cca::cca_kind_from_string(need(i));
    } else if (flag("--cca2", "run")) {
      a.cfg.cca2 = cca::cca_kind_from_string(need(i));
    } else if (flag("--aqm", kCell)) {
      a.cfg.aqm = aqm::aqm_kind_from_string(need(i));
    } else if (flag("--bdp", "run")) {
      a.cfg.buffer_bdp = positive_number("--bdp", "buffer", need(i), 1e6);
    } else if (flag("--bw", kCell)) {
      a.cfg.bottleneck_bps = positive_number("--bw", "rate", need(i), 1e13);
    } else if (flag("--flows", kCell)) {
      a.cfg.total_flows =
          bounded_integer<std::uint32_t>("--flows", "count", need(i), 1, 1u << 20);
    } else if (flag("--duration", kCell)) {
      a.cfg.duration =
          sim::Time::seconds(positive_number("--duration", "seconds", need(i), 1e9));
    } else if (flag("--seed", kCell)) {
      a.cfg.seed = bounded_integer<std::uint64_t>("--seed", "seed", need(i), 0, kAnyCount);
    } else if (flag("--rtt", kCell)) {
      a.cfg.rtt = sim::Time::milliseconds(
          bounded_integer<std::int64_t>("--rtt", "ms", need(i), 1, 100000));
    } else if (flag("--loss", kCell)) {
      a.cfg.random_loss = bounded_number("--loss", "rate", need(i), 0, 1);
    } else if (flag("--ecn", kCell)) {
      a.cfg.ecn = true;
    } else if (flag("--reps", "run sweep claims")) {
      a.reps = bounded_integer("--reps", "count", need(i), 1, std::numeric_limits<int>::max());
    } else if (flag("--pairs", "sweep")) {
      a.pairs = need(i);
      if (a.pairs != "inter" && a.pairs != "intra" && a.pairs != "all") {
        std::fprintf(stderr, "--pairs: '%s' is not inter, intra or all\n", a.pairs.c_str());
        std::exit(2);
      }
    } else if (flag("--threads", "sweep claims")) {
      a.threads = bounded_integer("--threads", "count", need(i), 0, 1024);
    } else if (flag("--event-budget", "sweep")) {
      a.event_budget =
          bounded_integer<std::uint64_t>("--event-budget", "events", need(i), 0, kAnyCount);
    } else if (flag("--wall-budget", "sweep")) {
      a.wall_budget_s = bounded_number("--wall-budget", "seconds", need(i), 0, 1e9);
    } else if (flag("--manifest", "sweep report")) {
      a.manifest = need(i);
    } else if (flag("--resume", "sweep")) {
      a.resume = true;
    } else if (flag("--stats-interval", kCell)) {
      a.stats_interval_s = bounded_number("--stats-interval", "seconds", need(i), 0, 1e9);
    } else if (flag("--metrics", "run sweep report")) {
      a.metrics_path = need(i);
    } else if (flag("--episodes", kCell)) {
      a.cfg.episodes.enabled = true;
    } else if (flag("--episode-window", kCell)) {
      a.cfg.episodes.enabled = true;
      a.cfg.episodes.window_s = positive_number("--episode-window", "seconds", need(i), 1e9);
    } else if (flag("--episode-enter", kCell)) {
      a.cfg.episodes.enabled = true;
      a.cfg.episodes.enter_jain =
          bounded_number("--episode-enter", "Jain index", need(i), 0, 1);
    } else if (flag("--episode-exit", kCell)) {
      a.cfg.episodes.enabled = true;
      a.cfg.episodes.exit_jain = bounded_number("--episode-exit", "Jain index", need(i), 0, 1);
    } else if (flag("--episodes-out", kCell)) {
      a.cfg.episodes.enabled = true;
      a.cfg.episodes.jsonl_path = need(i);
    } else if (flag("--json", "report")) {
      a.report_json = need(i);
    } else if (flag("--md", "claims report")) {
      a.report_md = need(i);
    } else if (flag("--top", "report")) {
      a.report_top = bounded_integer<std::size_t>("--top", "count", need(i), 0, 1u << 20);
    } else if (flag("--fault-loss", kCell)) {
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
    } else if (flag("--fault-flap", kCell)) {
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
    } else if (flag("--check-digest", "run")) {
      a.check_digest = bounded_integer("--check-digest", "runs", need(i), 2, 1000000);
    } else if (flag("--workload", kCell)) {
      const char* name = need(i);
      if (!workload::WorkloadSpec::from_name(name, &a.cfg.workload)) {
        std::fprintf(stderr, "unknown workload preset: %s (try:", name);
        for (const std::string& p : workload::WorkloadSpec::preset_names()) {
          std::fprintf(stderr, " %s", p.c_str());
        }
        std::fprintf(stderr, ")\n");
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage();
    }
  }
  // The env knob is read here so a junk value is a usage error, not a
  // silent default.
  try {
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

/// Write `text` to `path`; false, with a message naming `cmd`, if it failed.
bool write_file(const char* cmd, const std::string& path, const std::string& text,
                const char* what) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "%s: cannot write %s file %s\n", cmd, what, path.c_str());
    return false;
  }
  return true;
}

int cmd_claims(const Args& a) {
  const auto rows = exp::run_claims(exp::paper_claims(), a.reps, a.threads);
  const std::string md = exp::render_claims_markdown(rows, a.reps);
  if (!a.report_md.empty() && !write_file("claims", a.report_md, md, "markdown")) return 1;
  std::fputs(md.c_str(), stdout);
  return 0;
}

int cmd_report(const Args& a) {
  if (a.manifest.empty()) {
    std::fprintf(stderr, "report: --manifest PATH is required\n");
    return 2;
  }
  exp::ReportOptions opt;
  opt.manifest_path = a.manifest;
  opt.metrics_path = a.metrics_path;
  opt.top_n = a.report_top;
  exp::SweepSummary summary;
  std::string error;
  if (!exp::build_report(opt, &summary, &error)) {
    std::fprintf(stderr, "report: %s\n", error.c_str());
    return 1;
  }
  if (!a.report_json.empty() &&
      !write_file("report", a.report_json, exp::render_report_json(summary) + "\n", "json")) {
    return 1;
  }
  const std::string md = exp::render_report_markdown(summary);
  if (!a.report_md.empty() && !write_file("report", a.report_md, md, "markdown")) return 1;
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
  if (a.cmd == "claims") {
    try {
      return cmd_claims(a);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "claims: fatal: %s\n", e.what());
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
