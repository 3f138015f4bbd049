#include "exp/episode_probe.hpp"

#include <cstdio>

#include "exp/config.hpp"
#include "exp/flow_factory.hpp"
#include "fault/fault.hpp"
#include "net/port.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace elephant::exp {

EpisodeProbe::EpisodeProbe(const ExperimentConfig& cfg, FlowFactory& factory,
                           net::Port& bottleneck, const fault::FaultInjector* faults)
    : cfg_(cfg),
      factory_(factory),
      bottleneck_(bottleneck),
      faults_(faults),
      detector_(cfg.episodes) {}

obs::QueueSample EpisodeProbe::queue_sample() const {
  obs::QueueSample qs;
  const aqm::QueueStats& stats = bottleneck_.qdisc().stats();
  qs.dropped_overflow = stats.dropped_overflow;
  qs.dropped_early = stats.dropped_early;
  qs.ecn_marked = stats.ecn_marked;
  // Injected loss is counted by the port, never by the qdisc: arrivals its
  // loss stage dropped plus fault-plan loss bursts on the link.
  qs.injected_loss = bottleneck_.arrival_drops() + bottleneck_.fault_lost();

  if (faults_ != nullptr) qs.faults_applied = faults_->applied();
  return qs;
}

void EpisodeProbe::sample(sim::Time t) {
  buf_.clear();
  buf_.reserve(factory_.size());
  for (std::size_t i = 0; i < factory_.size(); ++i) {
    const FlowInstance& inst = factory_.flow(i);
    if (inst.kind != workload::ClassKind::kElephant) continue;
    obs::FlowSample fs;
    fs.flow = inst.sender->config().flow;
    fs.side = inst.side + 1;  // report 1-based sender sides like the CLI does
    fs.delivered_bytes = inst.receiver->delivered_bytes();
    fs.retx_segments = inst.sender->retx_segments();
    fs.rtos = inst.sender->stats().rtos;
    fs.cwnd_segments = inst.sender->cc().cwnd_segments();
    const bool started = inst.start_time <= t;
    const bool gone = inst.sender->completed() && inst.sender->completion_time() <= t;
    fs.active = started && !gone;
    buf_.push_back(fs);
  }
  detector_.sample(t.sec(), buf_, queue_sample());
}

void EpisodeProbe::finish(sim::Time t) {
  detector_.finish(t.sec());
  const std::string& path = cfg_.episodes.jsonl_path;
  if (!path.empty() && !detector_.write_jsonl(path, cfg_.id())) {
    std::fprintf(stderr, "[episodes] warning: failed to write %s\n", path.c_str());
  }
}

}  // namespace elephant::exp
