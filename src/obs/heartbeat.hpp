#pragma once

#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace elephant::obs {

/// Periodic self-profiling emitter: every `interval_s` of wall time it
/// appends one JSON line (registry snapshot plus caller status fields) to an
/// append-only JSONL file and prints a one-line progress report to the
/// console stream — the "is my multi-hour sweep alive and on schedule"
/// channel that the flight recorder is too heavy to provide.
///
/// Runs on its own thread; start()/stop() bracket the emitting window and
/// stop() writes a final full snapshot (histograms included) before joining.
/// Live ticks include histograms only when Options::histograms_in_ticks is
/// set — safe for a shared sweep registry whose histogram writes hold the
/// registry mutex, unsafe for a single-run registry the simulation thread
/// writes lock-free.
class Heartbeat {
 public:
  struct Options {
    double interval_s = 10.0;
    std::filesystem::path jsonl_path;  ///< empty = console only
    std::FILE* console = stderr;       ///< null = file only
    bool histograms_in_ticks = false;  ///< see class comment
  };

  /// Injects caller context into each emission: append extra top-level JSON
  /// fields (each followed by a comma, e.g. `"cells_done":12,`) to `fields`
  /// and/or a human progress line to `line`. Called from the heartbeat
  /// thread; synchronize any state it reads.
  using StatusFn = std::function<void(std::string* fields, std::string* line)>;

  /// Smallest tick period the guard will allow: a sub-10ms request is a
  /// configuration bug (the emitter would out-shout the work it reports on).
  static constexpr double kMinIntervalS = 0.01;
  /// What a zero/negative interval clamps to (the documented default).
  static constexpr double kFallbackIntervalS = 10.0;

  Heartbeat(const MetricsRegistry& reg, Options options, StatusFn status = {});
  ~Heartbeat();  ///< stops (with final snapshot) if still running

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  void start();
  /// Emit the final full snapshot and join the thread. Idempotent.
  void stop();

  [[nodiscard]] std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  /// The tick period actually in force after the constructor's guard:
  /// `interval_s` as requested, kFallbackIntervalS for zero/negative
  /// requests, kMinIntervalS for positive-but-sub-minimum ones. Clamping
  /// prints one warning to the console stream (stderr if none).
  [[nodiscard]] double effective_interval_s() const { return effective_interval_s_; }

 private:
  void run();
  void emit(bool final_snapshot);

  const MetricsRegistry& reg_;
  Options options_;
  StatusFn status_;
  double effective_interval_s_ = kFallbackIntervalS;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool running_ = false;
  std::thread thread_;
  std::atomic<std::uint64_t> ticks_{0};
  std::chrono::steady_clock::time_point started_{};
};

}  // namespace elephant::obs
