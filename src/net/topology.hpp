#pragma once

#include <memory>
#include <vector>

#include "aqm/factory.hpp"
#include "fault/fault.hpp"
#include "net/node.hpp"
#include "net/port.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace elephant::net {

/// Parameters of the paper's FABRIC dumbbell (Fig. 1).
///
/// Two traffic-generating clients (Clemson), two routers (WASH, NCSA), two
/// servers (TACC). `tc` shapes only router1's egress toward router2, so that
/// direction carries the configured bottleneck rate and AQM; every other
/// port runs at line rate with a deep drop-tail queue. The one-way delays
/// sum to 31 ms → 62 ms RTT, the paper's measured Clemson↔TACC value.
struct DumbbellConfig {
  double bottleneck_bps = 1e9;
  double access_bps = 25e9;    ///< client/server NICs (ConnectX-5, 25 GbE)
  double trunk_bps = 100e9;    ///< unshaped router NICs (ConnectX-6, 100 GbE)
  sim::Time client_delay = sim::Time::milliseconds(2);   ///< Clemson → WASH
  sim::Time trunk_delay = sim::Time::milliseconds(25);   ///< WASH → NCSA
  sim::Time server_delay = sim::Time::milliseconds(4);   ///< NCSA → TACC

  aqm::AqmKind aqm = aqm::AqmKind::kFifo;
  std::size_t bottleneck_buffer_bytes = 1 << 20;
  bool ecn = false;  ///< bottleneck AQM marks ECN-capable packets instead of dropping

  /// Edge buffers: deep enough never to be the binding constraint.
  std::size_t access_buffer_bytes = std::size_t{512} << 20;

  /// Bernoulli loss applied to bottleneck arrivals by the port's
  /// fault::ArrivalLoss stage (paper future work: "performance under network
  /// anomalies, e.g. variable rates of packet loss"). 0 disables.
  double random_loss = 0.0;

  /// Bursty two-state loss in the same stage, decided before `random_loss`.
  /// Disabled unless the params enable it.
  fault::GilbertElliottParams ge_loss{};

  std::uint64_t seed = 1;
};

/// The assembled dumbbell. Owns all nodes and ports; exposes the pieces an
/// experiment wires flows into.
class Dumbbell {
 public:
  Dumbbell(sim::Scheduler& sched, const DumbbellConfig& cfg);

  [[nodiscard]] Host& client(int i) { return *clients_.at(i); }
  [[nodiscard]] Host& server(int i) { return *servers_.at(i); }
  [[nodiscard]] Router& router1() { return *router1_; }
  [[nodiscard]] Router& router2() { return *router2_; }

  /// The shaped router1→router2 port whose qdisc is the experiment's AQM.
  [[nodiscard]] Port& bottleneck() { return *bottleneck_; }
  [[nodiscard]] const Port& bottleneck() const { return *bottleneck_; }

  /// Attach a flight recorder to the bottleneck port (the only queue whose
  /// behaviour the paper's matrix varies); null detaches.
  void set_tracer(trace::Tracer* tracer) { bottleneck_->set_tracer(tracer); }

  [[nodiscard]] const DumbbellConfig& config() const { return cfg_; }

  /// End-to-end propagation RTT (no queueing): 2 × (client+trunk+server).
  [[nodiscard]] sim::Time base_rtt() const {
    return 2 * (cfg_.client_delay + cfg_.trunk_delay + cfg_.server_delay);
  }

  /// Serialize every port (qdiscs included) and node counter, in the fixed
  /// construction order, for the cell's state hash.
  void save(sim::SnapshotWriter& w) const {
    for (const auto& p : ports_) p->save(w);
    for (const auto& h : clients_) h->save(w);
    for (const auto& h : servers_) h->save(w);
    router1_->save(w);
    router2_->save(w);
  }

 private:
  Port* add_port(std::unique_ptr<aqm::QueueDisc> q, double bps, sim::Time delay, Node* to,
                 std::string name);

  sim::Scheduler& sched_;
  DumbbellConfig cfg_;
  std::vector<std::unique_ptr<Host>> clients_;
  std::vector<std::unique_ptr<Host>> servers_;
  std::unique_ptr<Router> router1_;
  std::unique_ptr<Router> router2_;
  std::vector<std::unique_ptr<Port>> ports_;
  Port* bottleneck_ = nullptr;
};

}  // namespace elephant::net
