#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "aqm/queue_disc.hpp"
#include "fault/fault.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/ring_deque.hpp"
#include "sim/scheduler.hpp"
#include "sim/snapshot.hpp"
#include "sim/time.hpp"

namespace elephant::obs {
struct QueueMetrics;
}  // namespace elephant::obs

namespace elephant::net {

class Node;

/// An egress port: a queue discipline feeding a serializing link.
///
/// Models one direction of a physical link — a rate (bits/s), a propagation
/// delay, and the attached queue. The paper's bottleneck is reproduced by
/// giving router1's port toward router2 the configured rate and AQM; every
/// other port gets line rate and a deep drop-tail queue.
class Port {
 public:
  Port(sim::Scheduler& sched, std::unique_ptr<aqm::QueueDisc> qdisc, double rate_bps,
       sim::Time propagation, std::string name);

  /// Hand a packet to this port. It is queued (or dropped by the arrival-loss
  /// stage or the AQM) and serialized onto the link as capacity allows.
  void send(Packet&& p);

  void connect(Node* peer) { peer_ = peer; }

  /// Attach a flight recorder to this port and its qdisc (null detaches).
  void set_tracer(trace::Tracer* tracer) {
    tracer_ = tracer;
    qdisc_->set_tracer(tracer);
  }

  /// Attach telemetry handles (null detaches). Adds one per-dequeue
  /// histogram record of the packet's queue sojourn time; the enqueue/drop
  /// counters ride the qdisc's existing QueueStats, published by the run
  /// harness at run end, so the default path stays a single untaken branch.
  void set_metrics(const obs::QueueMetrics* metrics) { metrics_ = metrics; }

  /// Record one kQueueDepth sample of the current backlog and tx counter.
  /// The run loop calls it between scheduler calls, so sampling adds no
  /// event. Requires a tracer.
  void trace_queue_depth();

  [[nodiscard]] aqm::QueueDisc& qdisc() { return *qdisc_; }
  [[nodiscard]] const aqm::QueueDisc& qdisc() const { return *qdisc_; }
  [[nodiscard]] double rate_bps() const { return rate_bps_; }
  [[nodiscard]] sim::Time propagation() const { return propagation_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] std::uint64_t tx_packets() const { return tx_packets_; }
  [[nodiscard]] std::uint64_t tx_bytes() const { return tx_bytes_; }

  // --- fault-injection surface (driven by fault::FaultInjector) ---

  /// Per-packet link misbehaviour applied after serialization, like a flaky
  /// wire: corruption loss, late (reordered) delivery, duplication, jitter.
  /// Probabilistic knobs only take effect once a fault RNG is attached.
  struct LinkPerturb {
    double loss_prob = 0;       ///< packet vanishes in flight
    double reorder_prob = 0;    ///< packet lands `reorder_delay` late
    sim::Time reorder_delay{};
    double duplicate_prob = 0;  ///< packet is delivered twice
    sim::Time jitter{};         ///< uniform [0, jitter) extra latency
  };

  /// Take the link down or up. While down nothing serializes; arrivals keep
  /// queueing into (or being dropped by) the qdisc. Bringing it up drains.
  void set_link_up(bool up);
  [[nodiscard]] bool link_up() const { return up_; }

  /// Change the serialization rate (bandwidth degradation); applies to
  /// packets dequeued from now on. Clamped to a positive floor.
  void set_rate_bps(double bps);

  void set_perturb(const LinkPerturb& p) { perturb_ = p; }
  [[nodiscard]] const LinkPerturb& perturb() const { return perturb_; }
  /// RNG feeding the probabilistic perturbations; owned by the caller
  /// (FaultInjector), which must outlive the port's activity.
  void set_fault_rng(sim::Rng* rng) { fault_rng_ = rng; }

  /// Drop arrivals ahead of the qdisc (Bernoulli and Gilbert–Elliott loss).
  void set_arrival_loss(const fault::ArrivalLoss& loss) { arrival_loss_ = loss; }
  [[nodiscard]] std::uint64_t arrival_drops() const {
    return arrival_loss_ ? arrival_loss_->drops() : 0;
  }
  [[nodiscard]] std::uint64_t arrival_bytes_dropped() const {
    return arrival_loss_ ? arrival_loss_->bytes_dropped() : 0;
  }

  [[nodiscard]] std::uint64_t fault_lost() const { return fault_lost_; }
  [[nodiscard]] std::uint64_t fault_reordered() const { return fault_reordered_; }
  [[nodiscard]] std::uint64_t fault_duplicated() const { return fault_duplicated_; }

  // --- state-hash surface (model checking) ---

  /// Serialize the port's mutable state: link/serialization scalars, fault
  /// perturbation and counters, the in-flight delay line, the attached
  /// queue discipline (which serializes itself, derived state included), and
  /// the arrival-loss stage when there is one.
  /// Timer armed-ness is not written here — the scheduler's own state hash
  /// covers it.
  void save(sim::SnapshotWriter& w) const;

 private:
  void try_transmit();
  void deliver_in(sim::Time delay, Packet&& p);
  void deliver_head();

  /// One serialized packet in flight on the wire, due at `at`.
  struct InFlight {
    sim::Time at{};
    Packet pkt{};
  };

  sim::Scheduler& sched_;
  std::unique_ptr<aqm::QueueDisc> qdisc_;
  double rate_bps_;
  sim::Time propagation_;
  std::string name_;
  Node* peer_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  const obs::QueueMetrics* metrics_ = nullptr;
  /// Instant the current serialization finishes; the link is idle when
  /// now >= busy_until_. Replaces a per-packet "link free" one-shot event:
  /// the wake timer below is armed only when queued work will actually be
  /// waiting at that instant, so an uncongested port (most NICs in a
  /// many-flow cell) pays zero scheduler events for link bookkeeping.
  sim::Time busy_until_{};
  bool up_ = true;

  /// Serialization-end wake; re-armable so the slot and callback persist.
  sim::TimerHandle tx_timer_;

  /// Delay line of unperturbed in-flight packets. Serialization is FIFO and
  /// propagation fixed, so delivery instants are monotone: one re-armable
  /// timer pointed at the head replaces a heap event (and a packet-sized
  /// callback capture) per packet. Perturbed packets (fault jitter/reorder
  /// lateness) break monotonicity and fall back to the general heap.
  sim::RingDeque<InFlight> line_;
  sim::TimerHandle line_timer_;

  std::optional<fault::ArrivalLoss> arrival_loss_;
  LinkPerturb perturb_{};
  sim::Rng* fault_rng_ = nullptr;
  std::uint64_t fault_lost_ = 0;
  std::uint64_t fault_reordered_ = 0;
  std::uint64_t fault_duplicated_ = 0;

  std::uint64_t tx_packets_ = 0;
  std::uint64_t tx_bytes_ = 0;
};

}  // namespace elephant::net
