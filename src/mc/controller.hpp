#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mc/choice_trace.hpp"
#include "sim/choice.hpp"

namespace elephant::mc {

/// The explorer's sim::ChoiceHook: steers a run down a prescribed branch
/// prefix and records every choice point it passes.
///
/// A *plan* is a branch index per choice point, consumed in encounter order.
/// Points beyond the plan take branch 0 (the seeded outcome), so an empty
/// plan reproduces the seeded schedule exactly and a plan of length k pins
/// the first k decisions while everything after runs free. Because execution
/// is deterministic given the branch sequence, a plan that is a prefix of a
/// previously recorded trace re-creates that run's state at its k-th choice
/// point — this is what lets the DFS branch from a fresh cell per plan,
/// without storing any state.
///
/// In replay mode the controller additionally validates each encountered
/// point against the recorded trace (same kind, same branch count) and
/// latches the index of the first mismatch, so a replay against drifted code
/// reports divergence instead of silently exploring a different run.
class ScheduleController final : public sim::ChoiceHook {
 public:
  static constexpr std::size_t kNoDivergence = static_cast<std::size_t>(-1);

  /// Exploration mode: follow `plan`, free (seeded) beyond it.
  void reset(std::vector<std::uint32_t> plan) {
    plan_ = std::move(plan);
    trace_.clear();
    expected_ = nullptr;
    divergence_ = kNoDivergence;
  }

  /// Replay mode: follow the recorded branches and validate kinds/arities.
  /// `expected` must outlive the run.
  void reset_replay(const std::vector<ChoiceRec>* expected) {
    plan_.clear();
    plan_.reserve(expected->size());
    for (const ChoiceRec& c : *expected) plan_.push_back(c.chosen);
    trace_.clear();
    expected_ = expected;
    divergence_ = kNoDivergence;
  }

  std::uint32_t choose(sim::ChoiceKind kind, std::uint32_t n_branches) override {
    const std::size_t i = trace_.size();
    std::uint32_t pick = 0;
    if (i < plan_.size() && plan_[i] < n_branches) pick = plan_[i];
    if (expected_ != nullptr && divergence_ == kNoDivergence &&
        (i >= expected_->size() || (*expected_)[i].kind != kind ||
         (*expected_)[i].n_branches != n_branches)) {
      divergence_ = i;
    }
    trace_.push_back(ChoiceRec{kind, n_branches, pick});
    return pick;
  }

  [[nodiscard]] const std::vector<ChoiceRec>& trace() const { return trace_; }
  [[nodiscard]] bool diverged() const { return divergence_ != kNoDivergence; }
  [[nodiscard]] std::size_t divergence_at() const { return divergence_; }

 private:
  std::vector<std::uint32_t> plan_;
  std::vector<ChoiceRec> trace_;
  const std::vector<ChoiceRec>* expected_ = nullptr;
  std::size_t divergence_ = kNoDivergence;
};

}  // namespace elephant::mc
