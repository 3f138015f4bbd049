#include "mc/explorer.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "exp/cell.hpp"
#include "exp/status.hpp"
#include "mc/controller.hpp"
#include "trace/trace.hpp"

namespace elephant::mc {

namespace {

/// Resolved per-schedule bounds: what run_schedule() executes under.
struct ScheduleParams {
  sim::Time horizon{};
  sim::Time window{};  ///< probe interval (== horizon when starvation is off)
  sim::Time starvation_window{};
  std::uint64_t max_events = 0;
  double jain_floor = 0;
  std::uint64_t retx_storm = 0;
};

ScheduleParams resolve(const exp::ExperimentConfig& cfg, double horizon_s, double window_s,
                       double jain_floor, std::uint64_t retx_storm,
                       std::uint64_t max_events) {
  const sim::Time duration = cfg.effective_duration();
  ScheduleParams p;
  p.horizon = horizon_s > 0 ? sim::Time::seconds(horizon_s) : duration;
  if (p.horizon > duration) p.horizon = duration;
  p.starvation_window = window_s > 0 ? sim::Time::seconds(window_s) : sim::Time::zero();
  p.window = window_s > 0 ? p.starvation_window : p.horizon;
  p.max_events = max_events;
  p.jain_floor = jain_floor;
  p.retx_storm = retx_storm;
  return p;
}

struct ScheduleOutcome {
  bool truncated = false;
  std::string oracle;  ///< empty = clean schedule
  std::string detail;
  double at_s = 0;
  std::uint64_t hash = 0;  ///< end-state hash (exp::Cell::state_hash)
};

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

/// Drive one schedule from the cell's t = 0 state to the horizon,
/// evaluating the windowed oracles at probe boundaries and the end-state
/// oracles (invariants, Jain floor) at the horizon. The first violation
/// stops the schedule.
ScheduleOutcome run_schedule(exp::Cell& cell, const ScheduleParams& p) {
  ScheduleOutcome out;
  exp::FlowFactory& flows = cell.flows();
  const std::size_t n = flows.size();
  std::vector<std::uint64_t> delivered(n), retx(n);
  for (std::size_t i = 0; i < n; ++i) {
    delivered[i] = flows.flow(i).receiver->delivered_bytes();
    retx[i] = flows.flow(i).sender->retx_segments();
  }

  const std::uint64_t start_exec = cell.scheduler().executed_events();
  sim::Time t = cell.now();
  bool done = false;
  while (t < p.horizon && !done) {
    sim::Time next = t + p.window;
    if (next > p.horizon) next = p.horizon;
    std::uint64_t chunk_budget = 0;
    if (p.max_events > 0) {
      const std::uint64_t used = cell.scheduler().executed_events() - start_exec;
      if (used >= p.max_events) {
        out.truncated = true;
        break;
      }
      chunk_budget = p.max_events - used;
    }
    const auto stop = cell.run_chunk(chunk_budget, next);
    if (stop == sim::Scheduler::StopReason::kEventBudget) {
      out.truncated = true;
      done = true;
    } else if (stop == sim::Scheduler::StopReason::kQueueExhausted) {
      done = true;
    }
    // A starvation verdict needs a full window; the final sliver before the
    // horizon (and a budget-truncated chunk) only updates the baselines.
    const bool full_window = !out.truncated && next - t >= p.window;
    for (std::size_t i = 0; i < n; ++i) {
      const exp::FlowInstance& f = flows.flow(i);
      const std::uint64_t d = f.receiver->delivered_bytes();
      const std::uint64_t r = f.sender->retx_segments();
      if (p.retx_storm > 0 && r - retx[i] >= p.retx_storm && out.oracle.empty()) {
        out.oracle = "retx_storm";
        out.detail = fmt("flow %zu retransmitted %llu segments in [%.6g, %.6g] s "
                         "(threshold %llu per window)",
                         i, static_cast<unsigned long long>(r - retx[i]), t.sec(),
                         next.sec(), static_cast<unsigned long long>(p.retx_storm));
      }
      if (p.starvation_window > sim::Time::zero() && full_window && d == delivered[i] &&
          f.start_time <= t && !f.sender->completed() && out.oracle.empty()) {
        out.oracle = "starvation";
        out.detail = fmt("flow %zu delivered 0 bytes over [%.6g, %.6g] s "
                         "(started at %.6g s, not finished)",
                         i, t.sec(), next.sec(), f.start_time.sec());
      }
      delivered[i] = d;
      retx[i] = r;
    }
    if (!out.oracle.empty()) {
      out.at_s = cell.now().sec();
      return out;
    }
    t = next;
  }

  // End-state oracles. finalize() runs the packet/byte-conservation and cwnd
  // invariant checker and computes the fairness aggregates; mid-horizon
  // truncation is fine (the invariants hold at every event boundary).
  out.at_s = cell.now().sec();
  try {
    const exp::ExperimentResult res = cell.finalize();
    if (p.jain_floor > 0 && res.jain2 < p.jain_floor) {
      out.oracle = "jain_floor";
      out.detail = fmt("jain2 %.6f below floor %.6f (S1 %.3f Mbps, S2 %.3f Mbps)",
                       res.jain2, p.jain_floor, res.sender_bps[0] / 1e6,
                       res.sender_bps[1] / 1e6);
    }
  } catch (const exp::InvariantViolation& e) {
    out.oracle = "invariant";
    out.detail = e.what();
  }
  return out;
}

/// One schedule from t = 0: build a fresh cell for `cfg`, run it under `p`,
/// and hash its end state. The caller has already reset the controller
/// behind cfg.choice_hook to the plan; cell construction consumes no choice
/// points, so the plan starts at the first event either way.
ScheduleOutcome run_fresh(const exp::ExperimentConfig& cfg, const ScheduleParams& p) {
  exp::Cell cell(cfg);
  ScheduleOutcome out = run_schedule(cell, p);
  out.hash = cell.state_hash();
  return out;
}

}  // namespace

Explorer::Explorer(const exp::ExperimentConfig& cfg, ExplorerOptions opts)
    : cfg_(cfg), opts_(std::move(opts)) {
  // Exploration runs untraced (a flight recorder would interleave thousands
  // of schedules into one file) and without a metrics registry (pointless
  // churn across thousands of cells); replay() traces the one that matters.
  cfg_.tracer = nullptr;
  cfg_.metrics = nullptr;
}

ExploreStats Explorer::explore() {
  ScheduleController controller;
  exp::ExperimentConfig cfg = cfg_;
  cfg.choice_hook = &controller;
  const ScheduleParams params =
      resolve(cfg, opts_.horizon_s, opts_.starvation_window_s, opts_.jain_floor,
              opts_.retx_storm_segments, opts_.max_schedule_events);

  ExploreStats st;
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::vector<std::uint32_t>> frontier;
  frontier.push_back({});  // plan {} = the seeded schedule

  while (!frontier.empty() && st.schedules_run < opts_.max_schedules) {
    const std::vector<std::uint32_t> plan = std::move(frontier.back());
    frontier.pop_back();

    controller.reset(plan);
    const ScheduleOutcome out = run_fresh(cfg, params);
    ++st.schedules_run;
    if (out.truncated) ++st.truncated;

    const std::vector<ChoiceRec>& tr = controller.trace();
    st.max_choice_points = std::max<std::uint64_t>(st.max_choice_points, tr.size());
    const bool fresh = seen.insert(out.hash).second;
    if (fresh) {
      ++st.distinct_states;
    } else {
      ++st.duplicate_states;
    }

    if (!out.oracle.empty()) {
      Violation v;
      v.oracle = out.oracle;
      v.detail = out.detail;
      v.at_s = out.at_s;
      v.trace.config_id = cfg_.id();
      v.trace.oracle = out.oracle;
      v.trace.detail = out.detail;
      v.trace.at_s = out.at_s;
      v.trace.state_hash = out.hash;
      v.trace.horizon_s = params.horizon.sec();
      v.trace.window_s = opts_.starvation_window_s;
      v.trace.jain_floor = opts_.jain_floor;
      v.trace.retx_storm_segments = opts_.retx_storm_segments;
      v.trace.max_schedule_events = opts_.max_schedule_events;
      v.trace.choices = tr;
      if (violations_.empty() && !opts_.trace_out.empty()) {
        // Written at once, so a long exploration cut short keeps it; the
        // violation is reported whether or not the write succeeded.
        st.trace_written = v.trace.write_file(opts_.trace_out);
      }
      violations_.push_back(std::move(v));
    }

    // A fresh end state expands the frontier: every untaken branch of the
    // first max_depth choice points becomes a child plan. Children are
    // pushed deepest-first / highest-branch-first so the LIFO frontier pops
    // them in (shallowest, lowest-branch) order — classic DFS with the
    // left-most alternative first. A duplicate end state prunes the subtree:
    // its alternative interleavings were reachable from the first visit too.
    if (fresh) {
      const std::size_t limit = std::min<std::size_t>(tr.size(), opts_.max_depth);
      for (std::size_t i = limit; i > plan.size();) {
        --i;
        for (std::uint32_t b = tr[i].n_branches; b-- > 0;) {
          if (b == tr[i].chosen) continue;
          std::vector<std::uint32_t> child;
          child.reserve(i + 1);
          for (std::size_t j = 0; j < i; ++j) child.push_back(tr[j].chosen);
          child.push_back(b);
          frontier.push_back(std::move(child));
        }
      }
    }
  }

  st.violations = violations_.size();
  st.frontier_left = frontier.size();
  return st;
}

Explorer::ReplayReport Explorer::replay(const exp::ExperimentConfig& base,
                                        const ChoiceTrace& ct,
                                        trace::Tracer* flight_recorder) {
  ReplayReport rep;
  rep.config_matches = base.id() == ct.config_id;

  ScheduleController controller;
  exp::ExperimentConfig cfg = base;
  cfg.tracer = flight_recorder;
  cfg.metrics = nullptr;
  cfg.choice_hook = &controller;

  // One pass through the explorer's own schedule step: observers sample
  // between scheduler calls and are never serialized, so the traced run
  // executes, and hashes, exactly what the untraced exploration did.
  const ScheduleParams params =
      resolve(cfg, ct.horizon_s, ct.window_s, ct.jain_floor, ct.retx_storm_segments,
              ct.max_schedule_events);
  controller.reset_replay(&ct.choices);
  const ScheduleOutcome out = run_fresh(cfg, params);
  if (flight_recorder != nullptr) flight_recorder->flush();
  rep.diverged = controller.diverged();
  rep.divergence_at = controller.divergence_at();
  rep.end_state_hash = out.hash;
  rep.hash_matches = rep.end_state_hash == ct.state_hash;
  rep.oracle = out.oracle;
  rep.detail = out.detail;
  rep.at_s = out.at_s;
  rep.violation_reproduced = !ct.oracle.empty() && out.oracle == ct.oracle;
  return rep;
}

}  // namespace elephant::mc
