// chaos_sweep — crash-tolerance harness for multi-worker sweeps.
//
// Proves the leased work queue's exactly-once guarantee the only way that
// counts: by killing workers. It runs one sweep twice over the same 30-cell
// matrix (5 intra CCA pairs x 6 buffer sizes):
//
//   1. reference: a single worker, no interference, into its own manifest;
//   2. chaos: N `elephant sweep` worker processes sharing one manifest,
//      while this harness SIGKILLs random live workers (respawning a
//      replacement with a fresh worker id each time) until the kill budget
//      is spent.
//
// Convergence is then checked structurally and numerically:
//   - every cell id has exactly one terminal (non-claimed) manifest line,
//     and it is a success — no lost cells, no duplicated completions;
//   - every cell's journaled metrics equal the reference manifest's line
//     for the same id bit for bit — crashes and lease steals never change
//     what is computed.
//
// Exit 0 when all assertions hold; 1 with a diagnostic otherwise; 2 when a
// numeric flag is not a number in its range.
//
//   chaos_sweep --elephant BIN --workdir DIR [--workers 3] [--kills 5]
//               [--lease-s 2] [--duration 600] [--kill-interval-ms 700]
//               [--timeout-s 240] [--seed 1234]

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exp/manifest.hpp"
#include "exp/status.hpp"
#include "obs/json.hpp"

namespace {

namespace fs = std::filesystem;
using elephant::exp::AveragedResult;
using elephant::exp::ManifestEntry;
using elephant::exp::RunStatus;
using elephant::exp::SweepManifest;

struct Options {
  std::string elephant;
  fs::path workdir;
  int workers = 3;
  int kills = 5;
  double lease_s = 2;
  double duration_s = 600;  // simulated seconds per cell
  int kill_interval_ms = 700;
  double timeout_s = 240;
  unsigned seed = 1234;
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "chaos_sweep: FAIL: %s\n", msg.c_str());
  std::exit(1);
}

/// The value of `flag` as one number in [lo, hi]; anything else is a usage
/// error, not a silently different chaos run.
template <typename T>
T flag_value(const char* flag, const char* text, T lo, T hi) {
  T v{};
  if (!elephant::obs::json::scan_number(std::string_view(text), &v) || !(v >= lo && v <= hi)) {
    std::fprintf(stderr, "chaos_sweep: %s '%s' is not a number in [%.10g, %.10g]\n", flag,
                 text, static_cast<double>(lo), static_cast<double>(hi));
    std::exit(2);
  }
  return v;
}

pid_t spawn_worker(const Options& opt, const std::string& worker_id,
                   const fs::path& manifest, const fs::path& log_path) {
  const pid_t pid = ::fork();
  if (pid < 0) die("fork failed");
  if (pid != 0) return pid;

  // Child: stdout/stderr to a per-worker log.
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd >= 0) {
    ::dup2(log_fd, 1);
    ::dup2(log_fd, 2);
    ::close(log_fd);
  }
  std::vector<std::string> args = {
      opt.elephant, "sweep",
      "--pairs",    "intra",
      "--aqm",      "fifo",
      "--bw",       "100e6",
      "--flows",    "2",
      "--reps",     "1",
      "--duration", std::to_string(opt.duration_s),
      "--threads",  "1",
      "--manifest", manifest.string(),
      "--resume",
      "--lease-s",  std::to_string(opt.lease_s),
      "--worker-id", worker_id,
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(opt.elephant.c_str(), argv.data());
  std::fprintf(stderr, "execv %s failed: %s\n", opt.elephant.c_str(),
               std::strerror(errno));
  ::_exit(127);
}

/// Raw journal scan (no latest-entry folding): terminal lines per cell id.
std::map<std::string, std::vector<ManifestEntry>> terminal_lines(const fs::path& manifest) {
  std::map<std::string, std::vector<ManifestEntry>> by_id;
  std::ifstream in(manifest);
  if (!in) die("cannot read manifest " + manifest.string());
  std::string line;
  while (std::getline(in, line)) {
    ManifestEntry e;
    if (!SweepManifest::parse_line(line, &e)) continue;
    if (e.status == RunStatus::kClaimed) continue;
    by_id[e.id].push_back(e);
  }
  return by_id;
}

int run_reference(const Options& opt, const fs::path& manifest) {
  const pid_t pid = spawn_worker(opt, "ref", manifest, opt.workdir / "ref.log");
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) die("waitpid(reference) failed");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    die("reference sweep did not exit 0");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto need = [&]() -> const char* {
      if (i + 1 >= argc) die(std::string("missing value for ") + arg);
      return argv[++i];
    };
    if (!std::strcmp(arg, "--elephant")) {
      opt.elephant = need();
    } else if (!std::strcmp(arg, "--workdir")) {
      opt.workdir = need();
    } else if (!std::strcmp(arg, "--workers")) {
      opt.workers = flag_value(arg, need(), 1, 64);
    } else if (!std::strcmp(arg, "--kills")) {
      opt.kills = flag_value(arg, need(), 0, 1000000);
    } else if (!std::strcmp(arg, "--lease-s")) {
      opt.lease_s = flag_value(arg, need(), 1e-3, 3600.0);
    } else if (!std::strcmp(arg, "--duration")) {
      opt.duration_s = flag_value(arg, need(), 1e-3, 1e9);
    } else if (!std::strcmp(arg, "--kill-interval-ms")) {
      opt.kill_interval_ms = flag_value(arg, need(), 0, 3600000);
    } else if (!std::strcmp(arg, "--timeout-s")) {
      opt.timeout_s = flag_value(arg, need(), 1e-3, 1e6);
    } else if (!std::strcmp(arg, "--seed")) {
      opt.seed = flag_value(arg, need(), 0u, std::numeric_limits<unsigned>::max());
    } else {
      die(std::string("unknown option ") + arg);
    }
  }
  if (opt.elephant.empty() || opt.workdir.empty()) {
    die("--elephant BIN and --workdir DIR are required");
  }
  // A stale workdir holds an already-converged manifest, which would let
  // every worker exit before a single kill lands — start from scratch.
  std::error_code ec;
  fs::remove_all(opt.workdir, ec);
  ec.clear();
  fs::create_directories(opt.workdir, ec);
  if (ec) die("cannot create workdir");

  // ---- Phase 1: single-worker reference ---------------------------------
  const fs::path ref_manifest = opt.workdir / "ref-manifest.jsonl";
  std::fprintf(stderr, "[chaos] reference run...\n");
  run_reference(opt, ref_manifest);
  const auto ref_terminal = terminal_lines(ref_manifest);
  if (ref_terminal.empty()) die("reference manifest has no terminal lines");
  std::fprintf(stderr, "[chaos] reference: %zu cells\n", ref_terminal.size());

  // ---- Phase 2: N workers + SIGKILL chaos -------------------------------
  const fs::path manifest = opt.workdir / "manifest.jsonl";
  std::mt19937 rng(opt.seed);
  std::vector<std::pair<pid_t, std::string>> live;
  int generation = 0;
  auto spawn = [&] {
    const std::string id = "w" + std::to_string(generation++);
    const pid_t pid = spawn_worker(opt, id, manifest, opt.workdir / (id + ".log"));
    live.emplace_back(pid, id);
    std::fprintf(stderr, "[chaos] spawned %s (pid %d)\n", id.c_str(), pid);
  };
  for (int w = 0; w < opt.workers; ++w) spawn();

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(opt.timeout_s);
  auto reap = [&] {
    for (std::size_t k = 0; k < live.size();) {
      int status = 0;
      const pid_t r = ::waitpid(live[k].first, &status, WNOHANG);
      if (r == live[k].first) {
        std::fprintf(stderr, "[chaos] %s exited (status %d)\n", live[k].second.c_str(),
                     WIFEXITED(status) ? WEXITSTATUS(status) : -1);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        ++k;
      }
    }
  };

  int kills_done = 0;
  while (kills_done < opt.kills) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.kill_interval_ms));
    if (std::chrono::steady_clock::now() > deadline) die("timeout during kill phase");
    reap();
    if (live.empty()) {
      // Everyone finished before the budget was spent: converged early. The
      // structural checks below still apply, but log the shortfall — a
      // too-fast matrix dilutes the chaos.
      std::fprintf(stderr, "[chaos] workers converged after %d/%d kills\n", kills_done,
                   opt.kills);
      break;
    }
    const std::size_t victim =
        std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng);
    std::fprintf(stderr, "[chaos] SIGKILL %s (pid %d)\n", live[victim].second.c_str(),
                 live[victim].first);
    ::kill(live[victim].first, SIGKILL);
    ::waitpid(live[victim].first, nullptr, 0);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    ++kills_done;
    spawn();  // a replacement with a fresh id joins via --resume
  }

  // Wait for the survivors to converge.
  while (!live.empty()) {
    if (std::chrono::steady_clock::now() > deadline) {
      for (auto& [pid, id] : live) ::kill(pid, SIGKILL);
      die("timeout waiting for convergence");
    }
    reap();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // ---- Phase 3: exactly-once + bit-identical assertions -----------------
  const auto chaos_terminal = terminal_lines(manifest);
  if (chaos_terminal.size() != ref_terminal.size()) {
    die("cell count mismatch: chaos " + std::to_string(chaos_terminal.size()) +
        " vs reference " + std::to_string(ref_terminal.size()));
  }
  for (const auto& [id, lines] : chaos_terminal) {
    if (ref_terminal.find(id) == ref_terminal.end()) die("unexpected cell id " + id);
    if (lines.size() != 1) {
      die("cell " + id + " has " + std::to_string(lines.size()) +
          " terminal lines (want exactly 1)");
    }
    if (!lines[0].success()) die("cell " + id + " did not succeed: " + lines[0].error);
    const AveragedResult& c = lines[0].result;
    const AveragedResult& r = ref_terminal.at(id)[0].result;
    if (c.sender_bps[0] != r.sender_bps[0] || c.sender_bps[1] != r.sender_bps[1] ||
        c.jain2 != r.jain2 || c.utilization != r.utilization ||
        c.retx_segments != r.retx_segments || c.rtos != r.rtos) {
      die("cell " + id + " metrics differ from the reference run");
    }
  }

  std::fprintf(stderr,
               "[chaos] PASS: %zu cells exactly-once and bit-identical to the "
               "reference, %d workers killed\n",
               chaos_terminal.size(), kills_done);
  return 0;
}
