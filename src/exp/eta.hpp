#pragma once

#include <algorithm>
#include <cstddef>
#include <mutex>

namespace elephant::exp {

/// Sweep ETA from an EWMA of per-cell wall times.
///
/// The naive estimate `elapsed * remaining / done` answers "how long would
/// the rest take at the sweep's lifetime-average rate". That is badly wrong
/// in two common regimes: a prefix of near-instant cells (failures at
/// set-up) makes the average say the sweep is nearly free right up until
/// the first real cell lands, and heterogeneous matrices mix 100 Mb/s
/// cells with 10 Gb/s ones whose event counts differ by orders of magnitude. An exponentially
/// weighted moving average of recent cell durations tracks the *current*
/// cost regime instead, and dividing by the worker count accounts for
/// parallel drain.
///
/// Thread-safe: cells complete on pool threads while the heartbeat thread
/// reads the estimate.
class EtaEstimator {
 public:
  /// Smoothing factor: ~the last 1/alpha cells dominate the estimate. 0.3
  /// adapts within a handful of cells after a regime change (cheap cells →
  /// expensive ones) while still averaging out per-cell jitter.
  static constexpr double kAlpha = 0.3;

  /// Record one completed cell's wall time (seconds). Non-positive samples
  /// are clamped to 0 (a run failing at set-up takes ~microseconds).
  void record_cell(double wall_s) {
    const double s = wall_s > 0 ? wall_s : 0;
    std::lock_guard lock(mu_);
    ewma_s_ = samples_ == 0 ? s : kAlpha * s + (1 - kAlpha) * ewma_s_;
    ++samples_;
  }

  /// Number of cells recorded so far.
  [[nodiscard]] std::size_t samples() const {
    std::lock_guard lock(mu_);
    return samples_;
  }

  /// Current per-cell EWMA (seconds); 0 until the first sample.
  [[nodiscard]] double cell_ewma_s() const {
    std::lock_guard lock(mu_);
    return ewma_s_;
  }

  /// Estimated seconds to finish `total - done` remaining cells with
  /// `workers` parallel lanes (clamped to >= 1). 0 until the first sample
  /// or once nothing remains.
  [[nodiscard]] double eta_s(std::size_t done, std::size_t total,
                             int workers) const {
    if (done >= total) return 0;
    std::lock_guard lock(mu_);
    if (samples_ == 0) return 0;
    const double lanes = static_cast<double>(std::max(workers, 1));
    return ewma_s_ * static_cast<double>(total - done) / lanes;
  }

 private:
  mutable std::mutex mu_;
  double ewma_s_ = 0;
  std::size_t samples_ = 0;
};

}  // namespace elephant::exp
