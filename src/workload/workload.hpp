#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cca/congestion_control.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace elephant::workload {

/// What a traffic class's flows are.
enum class ClassKind : std::uint8_t {
  kElephant,  ///< persistent bulk transfer, never completes (the paper's flows)
  kFinite,    ///< finite-size transfer ("mouse"): completes, yields an FCT
};

/// Flow-size distribution families.
enum class SizeDist : std::uint8_t { kFixed, kPareto };

[[nodiscard]] const char* to_string(ClassKind kind);
[[nodiscard]] const char* to_string(SizeDist dist);

/// A finite flow's size distribution, parameterized by its mean.
struct SizeSpec {
  SizeDist dist = SizeDist::kFixed;
  double mean_bytes = 1e6;  ///< kFixed: the size; kPareto: the mean
  double shape = 1.5;       ///< Pareto tail index (> 1, heavier tail as it → 1)

  /// Draw one size in bytes (always ≥ 1).
  [[nodiscard]] std::uint64_t sample(sim::Rng& rng) const;

  [[nodiscard]] static SizeSpec fixed(double bytes);
  [[nodiscard]] static SizeSpec pareto(double mean_bytes, double shape);

  /// Stable identity string (part of the experiment run id).
  [[nodiscard]] std::string signature() const;
};

/// One class of flows sharing kind, CCA, arrival window, and size law. Every
/// class arrives staggered: its flows start uniformly at random within
/// [start_offset, start_offset + start_window].
struct TrafficClass {
  std::string name = "class";
  ClassKind kind = ClassKind::kElephant;

  /// CCA for every flow of the class — unless cca_from_pair, which mirrors
  /// the paper's setup: side-0 flows run the cell's cca1, side-1 flows cca2.
  cca::CcaKind cca = cca::CcaKind::kCubic;
  bool cca_from_pair = false;

  /// Flows to instantiate. 0 means the cell's effective flow count (paper
  /// Table 2) for elephants and no flows for a finite class.
  std::uint32_t count = 0;

  /// Dumbbell side (0 or 1); -1 alternates flows across both sides.
  int side = -1;

  sim::Time start_offset = sim::Time::zero();        ///< arrivals begin here
  sim::Time start_window = sim::Time::seconds(0.5);  ///< arrival span

  /// kFinite: transfer size. Ignored for elephants.
  SizeSpec size = SizeSpec::fixed(1e6);

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

  /// Resolve a preset by name; false if unknown.
  [[nodiscard]] static bool from_name(const std::string& name, WorkloadSpec* out);
  [[nodiscard]] static const std::vector<std::string>& preset_names();
};

}  // namespace elephant::workload
