#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aqm/factory.hpp"
#include "cca/congestion_control.hpp"
#include "fault/fault.hpp"
#include "obs/episode.hpp"
#include "sim/time.hpp"
#include "workload/workload.hpp"

namespace elephant::trace {
class Tracer;
}

namespace elephant::sim {
class ChoiceHook;
}

namespace elephant::obs {
class MetricsRegistry;
}

namespace elephant::exp {

/// One cell of the paper's 810-configuration matrix (Table 1):
/// a CCA pair, an AQM, a buffer size in BDP units, and a bottleneck rate.
struct ExperimentConfig {
  cca::CcaKind cca1 = cca::CcaKind::kBbrV1;  ///< sender node 1 (vs ...)
  cca::CcaKind cca2 = cca::CcaKind::kCubic;  ///< sender node 2
  aqm::AqmKind aqm = aqm::AqmKind::kFifo;
  double buffer_bdp = 2.0;          ///< router1 queue length in BDP multiples
  double bottleneck_bps = 1e9;
  sim::Time rtt = sim::Time::milliseconds(62);  ///< Clemson↔TACC base RTT

  std::uint32_t total_flows = 0;    ///< 0 → paper Table 2 value for the BW
  sim::Time duration = sim::Time::zero();  ///< 0 → scaled default for the BW
  std::uint32_t aggregation = 0;    ///< segments per unit; 0 → default for BW
  std::uint32_t mss = 8900;         ///< jumbo frames, as in the paper
  std::uint64_t seed = 42;
  bool ecn = false;
  bool pace_all = false;            ///< ablation: pace loss-based CCAs too
  double random_loss = 0.0;         ///< Bernoulli loss at the bottleneck (future work)

  /// Bursty two-state loss at the bottleneck (network-anomaly knob, like
  /// random_loss but with loss memory). Part of the run identity (id()).
  fault::GilbertElliottParams ge_loss{};
  /// Timed network faults (flaps, degradation, reordering, ...) applied to
  /// the bottleneck during the run. Part of the run identity (id()).
  fault::FaultPlan fault_plan{};

  /// Traffic mix for the cell. Empty = the paper's elephant-only workload
  /// (the historical hard-coded setup, bit-identical to pre-workload builds
  /// and absent from id()). Non-empty workloads are part of the run
  /// identity via their signature.
  workload::WorkloadSpec workload{};

  /// Watchdog budgets (0 = unlimited): exceeding either aborts the run with
  /// exp::RunTimeout instead of hanging a sweep worker. Not part of the run
  /// identity — a timed-out run never journals a result.
  std::uint64_t max_events = 0;
  double max_wall_seconds = 0;

  /// Optional flight recorder attached to every sender and the bottleneck
  /// port for the run. Not part of the experiment identity: excluded from
  /// id(). A run served from a sweep journal is not simulated and so emits
  /// no trace. A traced Cell::run_to_completion() also records the
  /// bottleneck queue depth every 100 ms.
  trace::Tracer* tracer = nullptr;

  /// Optional telemetry registry the run publishes into (see obs/metrics.hpp):
  /// scheduler gauges, bottleneck sojourn histogram, TCP srtt/cwnd, and
  /// run-boundary counters from the existing stats structs. Pure observation
  /// like the tracer and likewise excluded from id(); a run served from a
  /// sweep journal simply contributes no samples. Histograms are written lock-free by the simulation thread, so
  /// each concurrently running cell needs its own registry (merge afterwards).
  obs::MetricsRegistry* metrics = nullptr;

  /// Fairness-episode detection (see obs/episode.hpp): when enabled, the run
  /// samples per-flow delivered bytes and bottleneck evidence every window_s
  /// of simulated time and segments the run into share-imbalance episodes.
  /// Pure observation — sampling adds no scheduler events, so digests are
  /// bit-identical with it on or off — but the *result* gains an episodes
  /// vector, so the detection knobs (enabled/window/thresholds) are part of
  /// the run identity (id() appends "-ep..." only when enabled, preserving
  /// existing journal ids); the jsonl sink path is presentation-only and
  /// excluded.
  obs::EpisodeOptions episodes{};

  /// Optional model-checking choice hook (see sim/choice.hpp) installed on
  /// the cell scheduler for the run: the explorer steers scheduler ties and
  /// probabilistic fault outcomes through it. Null (the default) leaves
  /// every choice on its seeded branch — mc off changes nothing. Excluded
  /// from id() like the tracer: an explored run is never journaled.
  sim::ChoiceHook* choice_hook = nullptr;

  /// BDP in bytes (paper Eq. 1): BW · RTT / 8.
  [[nodiscard]] double bdp_bytes() const { return bottleneck_bps * rtt.sec() / 8.0; }
  [[nodiscard]] double buffer_bytes() const { return buffer_bdp * bdp_bytes(); }

  /// Paper Table 2: total flows per bottleneck bandwidth.
  [[nodiscard]] static std::uint32_t paper_flows_for(double bps);
  /// TSO/GRO-style aggregation factor used to keep event counts tractable.
  [[nodiscard]] static std::uint32_t default_aggregation_for(double bps);
  /// Default (shortened) run length per bandwidth; scaled by
  /// ELEPHANT_DURATION_SCALE (paper: 200 s everywhere).
  [[nodiscard]] static sim::Time default_duration_for(double bps);

  [[nodiscard]] std::uint32_t effective_flows() const {
    return total_flows != 0 ? total_flows : paper_flows_for(bottleneck_bps);
  }
  [[nodiscard]] std::uint32_t effective_aggregation() const {
    return aggregation != 0 ? aggregation : default_aggregation_for(bottleneck_bps);
  }
  [[nodiscard]] sim::Time effective_duration() const;

  [[nodiscard]] bool intra() const { return cca1 == cca2; }

  /// Stable identifier used as the sweep journal's run key.
  [[nodiscard]] std::string id() const;
  /// Human-readable label, e.g. "bbr1 vs cubic, fifo, 2 BDP, 1G".
  [[nodiscard]] std::string label() const;
};

/// Run-length multiplier for default durations: the ELEPHANT_DURATION_SCALE
/// env var, default 1. Throws std::invalid_argument when it is set but not a
/// finite positive number.
[[nodiscard]] double duration_scale();

/// Short bandwidth label ("100M", "25G").
[[nodiscard]] std::string bw_label(double bps);

/// The paper's axis values.
[[nodiscard]] const std::vector<double>& paper_bandwidths();          // 5 rates
[[nodiscard]] const std::vector<double>& paper_buffer_bdps();         // 6 sizes
[[nodiscard]] const std::vector<aqm::AqmKind>& paper_aqms();          // 3 AQMs
/// The 9 CCA pairings (5 inter vs CUBIC incl. CUBIC-CUBIC, 4 intra).
[[nodiscard]] const std::vector<std::pair<cca::CcaKind, cca::CcaKind>>& paper_cca_pairs();

}  // namespace elephant::exp
