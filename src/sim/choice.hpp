#pragma once

#include <cstdint>

namespace elephant::sim {

/// Catalog of the engine's enumerable nondeterminism. Every site that
/// consults the choice hook tags itself with one of these, so a recorded
/// schedule is self-describing and a replay can assert it is consuming the
/// same kind of decision it recorded.
enum class ChoiceKind : std::uint8_t {
  kSchedulerTie = 0,   ///< which of several same-timestamp events fires first
  kFaultLoss = 1,      ///< port fault layer: drop this packet or not
  kFaultReorder = 2,   ///< port fault layer: delay this packet or not
  kFaultDuplicate = 3, ///< port fault layer: duplicate this packet or not
  kGeTransition = 4,   ///< Gilbert-Elliott channel: flip good/bad state or not
  kGeLoss = 5,         ///< Gilbert-Elliott channel: drop in current state or not
  kArrivalLoss = 6,    ///< Bernoulli arrival loss: drop this packet or not
};
/// Number of ChoiceKind values; every kind is below it.
inline constexpr unsigned kChoiceKindCount = 7;

[[nodiscard]] inline const char* to_string(ChoiceKind k) {
  switch (k) {
    case ChoiceKind::kSchedulerTie:
      return "scheduler_tie";
    case ChoiceKind::kFaultLoss:
      return "fault_loss";
    case ChoiceKind::kFaultReorder:
      return "fault_reorder";
    case ChoiceKind::kFaultDuplicate:
      return "fault_duplicate";
    case ChoiceKind::kGeTransition:
      return "ge_transition";
    case ChoiceKind::kGeLoss:
      return "ge_loss";
    case ChoiceKind::kArrivalLoss:
      return "arrival_loss";
  }
  return "unknown";
}

/// Model-checking hook: turns one point of nondeterminism into an enumerable
/// branch. A site first computes its seeded outcome (consuming any RNG draws
/// exactly as it would with the hook absent — this keeps the RNG stream, and
/// therefore the position of every later choice point, schedule-independent),
/// then asks the hook which branch to take. Branch 0 is by convention the
/// seeded outcome; for binary sites branch 1 is its negation, and for the
/// scheduler tie the branches are the tied events in sequence order.
///
/// With no hook attached (the default) every site takes branch 0 without any
/// virtual call, so `mc` off changes nothing — the golden digests hold.
class ChoiceHook {
 public:
  virtual ~ChoiceHook() = default;

  /// Pick a branch in [0, n_branches). `n_branches` >= 2 always.
  [[nodiscard]] virtual std::uint32_t choose(ChoiceKind kind, std::uint32_t n_branches) = 0;
};

}  // namespace elephant::sim
