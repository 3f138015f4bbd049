#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "tcp/flow.hpp"

namespace elephant::metrics {

/// One telemetry sample of a flow's transport state.
struct FlowSample {
  sim::Time t;
  double cwnd_segments = 0;
  double pipe_segments = 0;
  double srtt_ms = 0;
  double pacing_bps = 0;
  double goodput_bps = 0;       ///< receiver goodput over the last interval
  std::uint64_t retx_units = 0; ///< cumulative
  std::uint64_t rtos = 0;       ///< cumulative
};

/// Per-flow telemetry — the simulated counterpart of the iperf3 + `ss -ti`
/// logs the paper publishes as its dataset contribution. Attach to any
/// number of flows and call sample() between scheduler calls (a run_until
/// loop), so recording never adds an event to the run; samples accumulate
/// in memory and can be dumped as a tidy CSV for offline analysis or ML
/// training.
class FlowMonitor {
 public:
  /// Register a flow. The caller keeps ownership; the flow must outlive the
  /// monitor's sampling.
  void watch(const tcp::Flow& flow, std::string label = {});

  /// Record one sample per watched flow at simulated time `now`. Goodput is
  /// averaged over the time since the previous sample (or since t = 0).
  void sample(sim::Time now);

  struct Series {
    const tcp::Flow* flow;
    std::string label;
    std::vector<FlowSample> samples;
  };
  [[nodiscard]] const std::vector<Series>& series() const { return series_; }

  /// Tidy CSV: label,flow,t_s,cwnd,pipe,srtt_ms,pacing_bps,goodput_bps,retx,rtos
  void write_csv(std::ostream& out) const;

 private:
  std::vector<Series> series_;
  std::vector<double> last_delivered_bytes_;
  sim::Time last_sample_{};
};

}  // namespace elephant::metrics
