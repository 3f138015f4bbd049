#include "obs/episode.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "obs/json.hpp"

namespace elephant::obs {

EpisodeDetector::EpisodeDetector(EpisodeOptions opt) : opt_(std::move(opt)) {}

void EpisodeDetector::sample(double t_s, const std::vector<FlowSample>& flows,
                             const QueueSample& queue) {
  // Grow the dense prev-state table to cover every flow id seen.
  std::uint32_t max_id = 0;
  for (const FlowSample& f : flows) max_id = std::max(max_id, f.flow);
  if (prev_flows_.size() <= max_id) prev_flows_.resize(max_id + 1);

  if (!have_baseline_) {
    have_baseline_ = true;
  } else {
    // Differentiate the window [prev_t_, t_s): goodput deltas over flows that
    // were live for the whole window, plus the evidence deltas.
    double sum = 0;
    double sum_sq = 0;
    std::size_t n_active = 0;
    double min_delta = 0;
    const FlowSample* victim = nullptr;
    std::uint64_t retx_delta = 0;
    std::uint64_t rto_delta = 0;
    bool cwnd_collapse = false;
    for (const FlowSample& f : flows) {
      const PrevFlow& prev = prev_flows_[f.flow];
      if (!prev.seen || !prev.active) continue;
      const auto d = static_cast<double>(f.delivered_bytes - prev.delivered_bytes);
      sum += d;
      sum_sq += d * d;
      if (victim == nullptr || d < min_delta) {
        min_delta = d;
        victim = &f;
      }
      ++n_active;
      if (f.retx_segments >= prev.retx_segments) {
        retx_delta += f.retx_segments - prev.retx_segments;
      }
      if (f.rtos >= prev.rtos) rto_delta += f.rtos - prev.rtos;
      if (prev.cwnd_segments > 0 && f.cwnd_segments < 0.5 * prev.cwnd_segments) {
        cwnd_collapse = true;
      }
    }

    // Windowed Jain over the active flows' goodput deltas; an all-idle window
    // (sum == 0) reads as fair — nobody is being starved of nothing.
    double jain = 1.0;
    if (n_active >= 2 && sum > 0) {
      jain = (sum * sum) / (static_cast<double>(n_active) * sum_sq);
    }

    const bool unfair = n_active >= 2 && jain < opt_.enter_jain;

    if (open_ && (jain >= opt_.exit_jain || n_active < 2)) {
      // The previous window was the last unfair one.
      close_episode(prev_t_);
    }
    if (!open_ && unfair) {
      open_ = true;
      current_ = Episode{};
      current_.start_s = prev_t_;
      current_.worst_jain = 1.0;
    }
    if (open_) {
      // Accumulate this window's evidence into the open episode.
      current_.loss_injected += queue.injected_loss - prev_queue_.injected_loss;
      current_.drops_overflow += queue.dropped_overflow - prev_queue_.dropped_overflow;
      current_.drops_early += queue.dropped_early - prev_queue_.dropped_early;
      current_.ecn_marks += queue.ecn_marked - prev_queue_.ecn_marked;
      current_.faults += queue.faults_applied - prev_queue_.faults_applied;
      current_.retx += retx_delta;
      current_.rtos += rto_delta;
      if (cwnd_collapse) ++current_.cwnd_collapses;
      if (jain < current_.worst_jain) {
        current_.worst_jain = jain;
        current_.worst_t_s = t_s;
        if (victim != nullptr) {
          current_.victim_flow = victim->flow;
          current_.victim_side = victim->side;
          const double fair = sum / static_cast<double>(n_active);
          current_.victim_share = fair > 0 ? min_delta / fair : 0;
        }
      }
      current_.end_s = t_s;
    }
  }

  // Roll the cumulative state forward.
  for (PrevFlow& p : prev_flows_) p.seen = false;
  for (const FlowSample& f : flows) {
    PrevFlow& p = prev_flows_[f.flow];
    p.delivered_bytes = f.delivered_bytes;
    p.retx_segments = f.retx_segments;
    p.rtos = f.rtos;
    p.cwnd_segments = f.cwnd_segments;
    p.active = f.active;
    p.seen = true;
  }
  prev_queue_ = queue;
  prev_t_ = t_s;
}

void EpisodeDetector::finish(double t_s) {
  if (open_) close_episode(std::max(t_s, current_.end_s));
}

void EpisodeDetector::close_episode(double end_s) {
  current_.end_s = end_s;
  current_.cause = classify(current_);
  episodes_.push_back(current_);
  open_ = false;
}

const char* EpisodeDetector::classify(const Episode& e) {
  // Injected loss outranks the bare fault-applied counter: a GE-loss fault
  // bumps both, and "loss-burst" is the more specific story; a link flap
  // bumps only the fault counter and still classifies as "fault".
  if (e.loss_injected > 0) return "loss-burst";
  if (e.faults > 0) return "fault";
  if (e.drops_overflow > 0) return "queue-overflow";
  if (e.drops_early > 0) return "aqm-early-drop";
  if (e.ecn_marks > 0) return "ecn-mark";
  if (e.rtos > 0) return "rto-storm";
  if (e.cwnd_collapses > 0) return "cwnd-collapse";
  return "unknown";
}

void EpisodeDetector::append_episode_json(const Episode& e, std::string* out) {
  appendf(out, "{\"start_s\":%.6g,\"end_s\":%.6g,\"worst_jain\":%.6g",
          e.start_s, e.end_s, e.worst_jain);
  appendf(out, ",\"worst_t_s\":%.6g,\"victim_flow\":%" PRIu32
               ",\"victim_side\":%d,\"victim_share\":%.6g",
          e.worst_t_s, e.victim_flow, e.victim_side, e.victim_share);
  appendf(out,
          ",\"loss_injected\":%" PRIu64 ",\"drops_overflow\":%" PRIu64
          ",\"drops_early\":%" PRIu64 ",\"ecn_marks\":%" PRIu64,
          e.loss_injected, e.drops_overflow, e.drops_early, e.ecn_marks);
  appendf(out,
          ",\"rtos\":%" PRIu64 ",\"retx\":%" PRIu64 ",\"faults\":%" PRIu64
          ",\"cwnd_collapses\":%" PRIu32,
          e.rtos, e.retx, e.faults, e.cwnd_collapses);
  *out += ",\"cause\":\"";
  *out += e.cause;  // tags are fixed strings, no escaping needed
  *out += "\"}";
}

bool EpisodeDetector::write_jsonl(const std::string& path,
                                  const std::string& cell_id) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const Episode& e : episodes_) {
    std::string line = "{\"cell\":\"";
    append_json_escaped(cell_id, &line);
    line += "\",\"episode\":";
    append_episode_json(e, &line);
    line += "}\n";
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) ok = false;
  }
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

}  // namespace elephant::obs
