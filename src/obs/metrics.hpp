#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"

namespace elephant::obs {

/// Monotone event counter. Updates are relaxed atomics, so any thread may
/// bump any counter at any time (per-cell sweep workers, the in-run sampler,
/// the heartbeat reader) without synchronization; one uncontended add is a
/// single locked instruction, and reads never block writers.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (cwnd, heap depth, sim-time). A set()
/// is one relaxed store — cheap enough to publish from a hot loop's exit.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Named metrics for one scope (a run, a sweep, a process). Registration
/// (find-or-create) locks and may allocate; the returned references are
/// stable for the registry's lifetime, so components register once at wiring
/// time and update lock-free afterwards — the steady state never touches the
/// registry, its mutex, or the allocator.
///
/// Thread contract: Counter/Gauge updates are atomic and safe from any
/// thread. Histogram writes are single-writer (one registry per running
/// cell); writing a *shared* registry's histogram requires holding mutex(),
/// which is also what merge_from() and the JSON writer take.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] LogLinHistogram& histogram(std::string_view name);

  /// Fold another registry into this one: counters add, gauges take the
  /// source value, histograms merge bucket-wise. Locks this registry; the
  /// source must be quiescent (its run has finished).
  void merge_from(const MetricsRegistry& other);

  /// Guards histogram access on shared registries and is taken internally by
  /// merge_from() and append_json().
  [[nodiscard]] std::mutex& mutex() const { return mu_; }

  /// Visitors used by the JSON writer; called with mutex() held.
  template <typename F>
  void for_each_counter(F&& f) const {
    for (const auto& [name, c] : counters_) f(name, c);
  }
  template <typename F>
  void for_each_gauge(F&& f) const {
    for (const auto& [name, g] : gauges_) f(name, g);
  }
  template <typename F>
  void for_each_histogram(F&& f) const {
    for (const auto& [name, h] : histograms_) f(name, h);
  }

 private:
  mutable std::mutex mu_;
  // std::map: node stability makes every returned reference permanent, and
  // iteration order is deterministic for the JSON writer.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, LogLinHistogram, std::less<>> histograms_;
};

/// RAII wall-clock timer: records elapsed seconds into a histogram on
/// destruction. A null histogram disables it entirely (no clock read), so
/// `ScopedTimer t(maybe_null)` is the self-profiling idiom for code that
/// runs with telemetry off by default.
class ScopedTimer {
 public:
  explicit ScopedTimer(LogLinHistogram* h) : h_(h) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (h_ != nullptr) {
      h_->record(std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                     .count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LogLinHistogram* h_;
  std::chrono::steady_clock::time_point start_{};
};

/// Gauges the scheduler publishes when a run/run_until call returns — pull
/// instrumentation: the per-event hot path is untouched, the cost is three
/// relaxed stores per run-loop exit (measured <2% even on the empty-churn
/// micro-benchmark that calls run_until once per event).
struct SchedulerMetrics {
  Gauge* events_executed = nullptr;  ///< monotone total over the scheduler's life
  Gauge* heap_depth = nullptr;       ///< pending events at loop exit
  Gauge* heap_peak = nullptr;        ///< high-water mark of the event heap
  /// Wall seconds per run_until(deadline, limits) call. Left null by the
  /// hot-path benchmarks (which call run_until once per event): the clock is
  /// only read when this is wired, so arming it is an explicit opt-in by the
  /// cell runners whose run_until calls span whole windows.
  LogLinHistogram* run_wall_s = nullptr;
};

/// Hot-layer handles for one bottleneck port and its qdisc. The counters are
/// published from QueueStats at run boundaries (the qdisc already counts);
/// only the sojourn histogram is a genuinely new per-packet write, gated on
/// one null check in the dequeue path.
struct QueueMetrics {
  LogLinHistogram* sojourn_s = nullptr;  ///< queueing delay per dequeued packet
};

/// Hot-layer handles shared by every TcpSender of a run. Counters ride the
/// existing TcpSenderStats and are published at run end; the histogram and
/// gauge are updated per ACK behind one null check.
struct TcpMetrics {
  Gauge* cwnd_segments = nullptr;   ///< most recent cwnd across flows
  LogLinHistogram* srtt_s = nullptr;  ///< smoothed RTT at each RTT-sample ACK
};

}  // namespace elephant::obs
