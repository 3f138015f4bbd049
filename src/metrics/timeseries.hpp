#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace elephant::metrics {

/// Caller-driven sampler: each sample(now) polls a probe and records a
/// (t, value) point — the building block for per-second throughput traces
/// like iperf3's interval reports. The caller samples between scheduler
/// calls (a run_until loop), so recording never adds an event to the run.
class TimeSeries {
 public:
  using Probe = std::function<double()>;

  explicit TimeSeries(Probe probe) : probe_(std::move(probe)) {}

  /// Record the probe's current value at simulated time `now`.
  void sample(sim::Time now) { points_.push_back({now, probe_()}); }

  struct Point {
    sim::Time t;
    double value;
  };
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

  /// Convenience: successive differences (e.g. bytes → per-interval bytes).
  [[nodiscard]] std::vector<Point> deltas() const {
    std::vector<Point> out;
    out.reserve(points_.size());
    double prev = 0;
    for (const Point& p : points_) {
      out.push_back({p.t, p.value - prev});
      prev = p.value;
    }
    return out;
  }

 private:
  Probe probe_;
  std::vector<Point> points_;
};

}  // namespace elephant::metrics
