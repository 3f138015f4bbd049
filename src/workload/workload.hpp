#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cca/congestion_control.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace elephant::workload {

/// What a traffic class's flows are.
enum class ClassKind : std::uint8_t {
  kElephant,  ///< persistent bulk transfer, never completes (the paper's flows)
  kFinite,    ///< finite-size transfer ("mouse"): completes, yields an FCT
  kOnOff,     ///< application-limited source: bursts separated by think time
};

/// How a class's flows arrive.
enum class Arrival : std::uint8_t {
  kStagger,  ///< uniform within [start_offset, start_offset + start_window]
  kPoisson,  ///< Poisson process at arrival_rate_hz from start_offset on
};

/// Flow-size (or burst-size) distribution families.
enum class SizeDist : std::uint8_t { kFixed, kPareto, kLognormal, kEmpirical };

[[nodiscard]] const char* to_string(ClassKind kind);
[[nodiscard]] const char* to_string(Arrival arrival);
[[nodiscard]] const char* to_string(SizeDist dist);

/// A flow/burst size distribution. All families are parameterized by their
/// mean so workload intensity is comparable across families.
struct SizeSpec {
  SizeDist dist = SizeDist::kFixed;
  double mean_bytes = 1e6;  ///< kFixed: the size; kPareto/kLognormal: the mean
  double shape = 1.5;       ///< Pareto tail index (> 1, heavier tail as it → 1)
  double sigma = 1.0;       ///< lognormal σ of ln(size)
  /// kEmpirical: inverse-CDF table of (cumulative probability, bytes) points,
  /// ascending in probability; sampled with linear interpolation.
  std::vector<std::pair<double, double>> cdf;

  /// Draw one size in bytes (always ≥ 1).
  [[nodiscard]] std::uint64_t sample(sim::Rng& rng) const;

  [[nodiscard]] static SizeSpec fixed(double bytes);
  [[nodiscard]] static SizeSpec pareto(double mean_bytes, double shape);
  [[nodiscard]] static SizeSpec lognormal(double mean_bytes, double sigma);
  [[nodiscard]] static SizeSpec empirical(std::vector<std::pair<double, double>> points);

  /// Load an empirical CDF from a text file of "<bytes> <cum_prob>" lines
  /// (the ns-2 / flow-generator convention used for web and datacenter
  /// mixes; '#' starts a comment). Probabilities must be nondecreasing in
  /// [0, 1]; the last point is treated as the distribution's upper bound.
  [[nodiscard]] static bool load_cdf_file(const std::string& path, SizeSpec* out,
                                          std::string* error);

  /// Stable identity string (part of the experiment run id).
  [[nodiscard]] std::string signature() const;
};

/// One class of flows sharing kind, CCA, arrival process, and size law.
struct TrafficClass {
  std::string name = "class";
  ClassKind kind = ClassKind::kElephant;

  /// CCA for every flow of the class — unless cca_from_pair, which mirrors
  /// the paper's setup: side-0 flows run the cell's cca1, side-1 flows cca2.
  cca::CcaKind cca = cca::CcaKind::kCubic;
  bool cca_from_pair = false;

  /// Flows to instantiate. 0 means: for elephants, the cell's effective flow
  /// count (paper Table 2); for Poisson classes, no cap (whatever number of
  /// arrivals fits in the run). Stagger-arrival finite/on-off classes need an
  /// explicit count.
  std::uint32_t count = 0;

  /// Dumbbell side (0 or 1); -1 alternates flows across both sides.
  int side = -1;

  Arrival arrival = Arrival::kStagger;
  sim::Time start_offset = sim::Time::zero();           ///< arrivals begin here
  sim::Time start_window = sim::Time::seconds(0.5);     ///< kStagger span
  double arrival_rate_hz = 0.0;                         ///< kPoisson mean rate

  /// kFinite: transfer size. kOnOff: per-burst size. Ignored for elephants.
  SizeSpec size = SizeSpec::fixed(1e6);
  /// kOnOff: mean exponential think time between bursts.
  sim::Time off_mean = sim::Time::seconds(1);

  [[nodiscard]] std::string signature() const;
};

/// The full traffic description of one experiment cell.
///
/// An empty class list is the paper's elephant-only workload: its flows draw
/// their seeds and start times from the shared cell RNG, so every packet
/// timestamp stays bit-identical to pre-workload builds (guarded by the
/// golden-digest tests). Non-empty specs draw per-flow RNG sub-streams via
/// sim::derive_seed, so adding a class never perturbs another class's
/// randomness. exp::FlowFactory builds both.
struct WorkloadSpec {
  std::vector<TrafficClass> classes;

  [[nodiscard]] bool is_paper_default() const { return classes.empty(); }

  /// Run-identity string; empty for the default workload so existing cell
  /// ids (and previously journaled results) are unchanged.
  [[nodiscard]] std::string signature() const;

  /// Built-in presets. "paper" is the default elephant-only workload.
  [[nodiscard]] static WorkloadSpec paper();
  /// Paper elephants + 40 staggered CUBIC mice (Pareto-sized short flows).
  [[nodiscard]] static WorkloadSpec mice_elephants();
  /// Paper elephants + Poisson arrivals of lognormal web-like transfers.
  [[nodiscard]] static WorkloadSpec poisson_web();
  /// Paper elephants + application-limited on/off burst sources.
  [[nodiscard]] static WorkloadSpec onoff_bursts();

  /// Resolve a preset by name; false if unknown.
  [[nodiscard]] static bool from_name(const std::string& name, WorkloadSpec* out);
  [[nodiscard]] static const std::vector<std::string>& preset_names();
};

}  // namespace elephant::workload
