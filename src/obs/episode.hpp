#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace elephant::obs {

/// Detection knobs carried on ExperimentConfig. The identity-relevant fields
/// (enabled, window_s, enter_jain, exit_jain) are folded into the config id —
/// an episode-enabled cell is a different manifest key from its plain
/// twin — while jsonl_path is presentation-only and excluded.
struct EpisodeOptions {
  bool enabled = false;
  double window_s = 1.0;    ///< sampling window (simulated seconds)
  double enter_jain = 0.6;  ///< open an episode when windowed Jain drops below
  double exit_jain = 0.8;   ///< close it when windowed Jain recovers to/above
  std::string jsonl_path;   ///< optional episodes.jsonl sink (empty = none)

  [[nodiscard]] bool valid() const {
    return window_s > 0 && enter_jain > 0 && enter_jain <= exit_jain &&
           exit_jain <= 1.0;
  }
};

/// Cumulative per-flow observation at one window boundary. `active` means the
/// flow was live for the *entire* preceding window (started at or before the
/// previous sample, not yet completed there) — partially-present flows would
/// otherwise read as starved at birth and death.
struct FlowSample {
  std::uint32_t flow = 0;
  int side = 0;                        ///< 1 or 2 (elephant sender side)
  std::uint64_t delivered_bytes = 0;   ///< cumulative at the receiver
  std::uint64_t retx_segments = 0;     ///< cumulative retransmissions
  std::uint64_t rtos = 0;              ///< cumulative RTO firings
  double cwnd_segments = 0;            ///< instantaneous cwnd
  bool active = false;
};

/// Cumulative bottleneck-queue and fault-layer evidence at the same boundary.
struct QueueSample {
  std::uint64_t dropped_overflow = 0;  ///< tail/overflow drops
  std::uint64_t dropped_early = 0;     ///< AQM early drops (injected excluded)
  std::uint64_t ecn_marked = 0;        ///< CE marks
  std::uint64_t injected_loss = 0;     ///< GE/Bernoulli loss-injector drops
  std::uint64_t faults_applied = 0;    ///< fault-injector actions applied
};

/// One contiguous stretch of windows whose per-flow goodput shares stayed
/// unfair (windowed Jain under the hysteresis thresholds), with the evidence
/// that accumulated while it was open and a dominant-cause tag.
struct Episode {
  double start_s = 0;       ///< start of the first unfair window
  double end_s = 0;         ///< end of the last unfair window
  double worst_jain = 1.0;  ///< minimum windowed Jain inside the episode
  double worst_t_s = 0;     ///< window end where worst_jain occurred
  std::uint32_t victim_flow = 0;  ///< lowest-share flow at the worst window
  int victim_side = 0;
  double victim_share = 0;  ///< victim throughput / fair share, at worst window
  // Evidence deltas summed over the episode's windows.
  std::uint64_t loss_injected = 0;
  std::uint64_t drops_overflow = 0;
  std::uint64_t drops_early = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t rtos = 0;
  std::uint64_t retx = 0;
  std::uint64_t faults = 0;
  std::uint32_t cwnd_collapses = 0;  ///< windows where some cwnd halved or worse
  /// Dominant-cause tag by evidence precedence: loss-burst > fault >
  /// queue-overflow > aqm-early-drop > ecn-mark > rto-storm > cwnd-collapse >
  /// unknown.
  std::string cause;
};

/// Streaming detector: feed cumulative per-flow + queue samples at a fixed
/// window cadence; it differentiates them into windowed shares, runs a
/// hysteresis state machine on the windowed Jain index, and accumulates the
/// coincident evidence of each open episode. Pure observation — it never
/// touches the scheduler, so attaching it cannot perturb a run's digest.
class EpisodeDetector {
 public:
  explicit EpisodeDetector(EpisodeOptions opt);

  /// Ingest the cumulative state at simulated time `t_s`. The first call
  /// establishes the baseline; each later call closes the window
  /// [prev_t, t_s). Flows may appear/disappear between calls (keyed by id).
  void sample(double t_s, const std::vector<FlowSample>& flows,
              const QueueSample& queue);

  /// Close any episode still open at end of run (end_s = t_s).
  void finish(double t_s);

  [[nodiscard]] const std::vector<Episode>& episodes() const { return episodes_; }
  [[nodiscard]] bool in_episode() const { return open_; }
  [[nodiscard]] const EpisodeOptions& options() const { return opt_; }

  /// Append one JSON line per episode to `path` (created/truncated).
  /// Returns false on I/O failure.
  [[nodiscard]] bool write_jsonl(const std::string& path,
                                 const std::string& cell_id) const;

  /// Serialize one episode as a JSON object (used by the jsonl writer and
  /// exposed for the manifest/report plumbing tests).
  static void append_episode_json(const Episode& e, std::string* out);

 private:
  struct PrevFlow {
    std::uint64_t delivered_bytes = 0;
    std::uint64_t retx_segments = 0;
    std::uint64_t rtos = 0;
    double cwnd_segments = 0;
    bool active = false;
    bool seen = false;
  };

  void close_episode(double end_s);
  static const char* classify(const Episode& e);

  EpisodeOptions opt_;
  std::vector<Episode> episodes_;
  Episode current_{};
  bool open_ = false;
  bool have_baseline_ = false;
  double prev_t_ = 0;
  QueueSample prev_queue_{};
  std::vector<PrevFlow> prev_flows_;  ///< indexed by flow id (dense, grows)
};

}  // namespace elephant::obs
