#include "exp/runner.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "exp/cell.hpp"
#include "sim/random.hpp"

namespace elephant::exp {

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  // The engine lives in exp::Cell so a caller can hold a run open for
  // stepping; constructing a cell and running it to completion is the
  // historical behavior bit for bit.
  return Cell(cfg).run_to_completion();
}

AveragedResult summarize(const ExperimentResult& run) {
  AveragedResult s;
  s.config = run.config;
  s.repetitions = 1;
  s.sender_bps[0] = run.sender_bps[0];
  s.sender_bps[1] = run.sender_bps[1];
  s.jain2 = run.jain2;
  s.utilization = run.utilization;
  s.retx_segments = static_cast<double>(run.retx_segments);
  s.rtos = static_cast<double>(run.rtos);
  s.classes = run.classes;
  s.episodes = static_cast<double>(run.episodes.size());
  for (const obs::Episode& e : run.episodes) {
    if (e.worst_jain < s.episode_worst_jain || s.episode_cause.empty()) {
      s.episode_worst_jain = e.worst_jain;
      s.episode_worst_t_s = e.worst_t_s;
      s.episode_victim = e.victim_flow;
      s.episode_cause = e.cause;
    }
  }
  return s;
}

AveragedResult average(const ExperimentConfig& cfg, const std::vector<AveragedResult>& runs) {
  AveragedResult avg;
  avg.config = cfg;
  avg.repetitions = static_cast<int>(runs.size());
  if (runs.empty()) return avg;
  avg.jain2 = 0;  // accumulator: clear the "trivially fair" default
  double episode_total = 0;
  for (const AveragedResult& r : runs) {
    avg.sender_bps[0] += r.sender_bps[0];
    avg.sender_bps[1] += r.sender_bps[1];
    avg.jain2 += r.jain2;
    avg.utilization += r.utilization;
    avg.retx_segments += r.retx_segments;
    avg.rtos += r.rtos;
    // Episode summary: mean count per repetition plus the single worst
    // episode seen anywhere (a sweep ranks cells by how unfair they ever
    // got, not by how the unfairness averaged out).
    episode_total += r.episodes;
    if (r.episodes > 0 &&
        (r.episode_worst_jain < avg.episode_worst_jain || avg.episode_cause.empty())) {
      avg.episode_worst_jain = r.episode_worst_jain;
      avg.episode_worst_t_s = r.episode_worst_t_s;
      avg.episode_victim = r.episode_victim;
      avg.episode_cause = r.episode_cause;
    }
  }
  const double n = static_cast<double>(runs.size());
  avg.sender_bps[0] /= n;
  avg.sender_bps[1] /= n;
  avg.jain2 /= n;
  avg.utilization /= n;
  avg.retx_segments /= n;
  avg.rtos /= n;
  avg.episodes = episode_total / n;

  // Per-class means, matched by index (every repetition runs the same
  // WorkloadSpec and therefore reports the same class list).
  const std::size_t n_classes = runs.front().classes.size();
  for (std::size_t ci = 0; ci < n_classes; ++ci) {
    ClassResult acc;
    acc.name = runs.front().classes[ci].name;
    acc.jain = 0;  // accumulator
    double flows = 0;
    double completed = 0;
    for (const AveragedResult& r : runs) {
      if (ci >= r.classes.size()) continue;
      const ClassResult& c = r.classes[ci];
      flows += c.flows;
      completed += c.completed;
      acc.throughput_bps += c.throughput_bps;
      acc.share += c.share;
      acc.jain += c.jain;
      acc.fct_p50_s += c.fct_p50_s;
      acc.fct_p95_s += c.fct_p95_s;
      acc.fct_p99_s += c.fct_p99_s;
      acc.fct_mean_s += c.fct_mean_s;
      acc.slowdown_p50 += c.slowdown_p50;
      acc.slowdown_p95 += c.slowdown_p95;
      acc.slowdown_p99 += c.slowdown_p99;
    }
    acc.flows = static_cast<std::uint32_t>(std::llround(flows / n));
    acc.completed = static_cast<std::uint32_t>(std::llround(completed / n));
    acc.throughput_bps /= n;
    acc.share /= n;
    acc.jain /= n;
    acc.fct_p50_s /= n;
    acc.fct_p95_s /= n;
    acc.fct_p99_s /= n;
    acc.fct_mean_s /= n;
    acc.slowdown_p50 /= n;
    acc.slowdown_p95 /= n;
    acc.slowdown_p99 /= n;
    avg.classes.push_back(std::move(acc));
  }
  return avg;
}

AveragedResult run_averaged(const ExperimentConfig& cfg, int reps) {
  if (reps < 1) {
    throw std::invalid_argument("repetitions must be >= 1, got " + std::to_string(reps));
  }
  std::vector<AveragedResult> runs;
  runs.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    ExperimentConfig c = cfg;
    // Repetition r runs sub-stream r of the configured seed (stream 0 is the
    // seed itself, so single-rep results keep their identity).
    c.seed = sim::derive_seed(cfg.seed, static_cast<std::uint64_t>(r));
    runs.push_back(summarize(run_experiment(c)));
  }
  return average(cfg, runs);
}

}  // namespace elephant::exp
