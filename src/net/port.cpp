#include "net/port.hpp"

#include <cassert>
#include <utility>

#include "net/node.hpp"
#include "obs/metrics.hpp"

namespace elephant::net {

Port::Port(sim::Scheduler& sched, std::unique_ptr<aqm::QueueDisc> qdisc, double rate_bps,
           sim::Time propagation, std::string name)
    : sched_(sched),
      qdisc_(std::move(qdisc)),
      rate_bps_(rate_bps),
      propagation_(propagation),
      name_(std::move(name)) {
  assert(rate_bps_ > 0.0);
  line_timer_.init(sched_, [this] { deliver_head(); });
  tx_timer_.init(sched_, [this] { try_transmit(); });
}

void Port::trace_queue_depth() {
  trace::TraceRecord r;
  r.t = sched_.now();
  r.type = trace::RecordType::kQueueDepth;
  r.v0 = static_cast<double>(qdisc_->byte_length());
  r.v1 = static_cast<double>(qdisc_->packet_length());
  r.v2 = static_cast<double>(tx_bytes_);
  tracer_->record(r);
}

void Port::send(Packet&& p) {
  // A lost arrival still falls through to the service tail below, exactly
  // like a packet the qdisc refuses.
  if (arrival_loss_ && arrival_loss_->drop(p.size)) [[unlikely]] {
    qdisc_->trace_drop(p, /*early=*/true);
  } else {
    qdisc_->enqueue(std::move(p));
  }
  if (sched_.now() >= busy_until_) {
    try_transmit();
  } else if (up_ && !tx_timer_.armed() && qdisc_->packet_length() > 0) {
    // Arrived mid-serialization with no wake pending (the queue was empty
    // when the current packet started): service resumes when the link frees.
    tx_timer_.rearm(busy_until_);
  }
}

void Port::set_link_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  if (!up_) return;
  // Drain whatever queued during the outage. If the pre-outage serialization
  // instant is still ahead, service resumes there (arrivals while down never
  // arm the wake themselves).
  if (sched_.now() >= busy_until_) {
    try_transmit();
  } else if (!tx_timer_.armed() && qdisc_->packet_length() > 0) {
    tx_timer_.rearm(busy_until_);
  }
}

void Port::deliver_in(sim::Time delay, Packet&& p) {
  const sim::Time at = sched_.now() + delay;
  // The delay-line invariant: entries are delivered in push order, so `at`
  // must be monotone. Serialization is FIFO at a fixed rate and propagation
  // is fixed, so no packet lands before the one serialized ahead of it (a
  // sub-nanosecond serialization can land two at the same instant).
  assert(line_.empty() || at >= line_.back().at);
  line_.push_back(InFlight{at, std::move(p)});
  if (line_.size() == 1) line_timer_.rearm(at);
}

void Port::deliver_head() {
  assert(peer_ != nullptr && "port not connected");
  while (!line_.empty() && line_.front().at <= sched_.now()) {
    Packet p = std::move(line_.front().pkt);
    line_.pop_front();
    peer_->receive(std::move(p));
  }
  if (!line_.empty()) line_timer_.rearm(line_.front().at);
}

void Port::try_transmit() {
  if (!up_ || sched_.now() < busy_until_) return;
  auto next = qdisc_->dequeue();
  if (!next) return;

  const sim::Time tx = sim::transmission_time(next->size, rate_bps_);
  ++tx_packets_;
  tx_bytes_ += next->size;
  if (metrics_ != nullptr && metrics_->sojourn_s != nullptr) [[unlikely]] {
    metrics_->sojourn_s->record((sched_.now() - next->enqueue_time).sec());
  }

  // The link frees at busy_until_; the packet lands after serialization
  // plus propagation. A wake is scheduled only when a queued packet will be
  // waiting for it — whichever event touches the port at busy_until_ first
  // serves the head of the queue, so an idle-at-dequeue port needs no event
  // at all (formerly ~60% of all scheduler pops in a many-flow cell).
  busy_until_ = sched_.now() + tx;
  if (qdisc_->packet_length() > 0) tx_timer_.rearm(busy_until_);

  // Link loss acts after serialization, like a flaky wire: the packet
  // occupied the link either way.
  if (fault_rng_ != nullptr && link_loss_ > 0 &&
      fault::chance(*fault_rng_, link_loss_)) [[unlikely]] {
    ++fault_lost_;
    return;  // corrupted in flight
  }
  deliver_in(tx + propagation_, std::move(*next));
}

}  // namespace elephant::net
