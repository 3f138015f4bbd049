#include "net/topology.hpp"

#include <utility>

#include "aqm/fifo.hpp"

namespace elephant::net {

Port* Dumbbell::add_port(std::unique_ptr<aqm::QueueDisc> q, double bps, sim::Time delay,
                         Node* to, std::string name) {
  ports_.push_back(std::make_unique<Port>(sched_, std::move(q), bps, delay, std::move(name)));
  Port* p = ports_.back().get();
  p->connect(to);
  return p;
}

Dumbbell::Dumbbell(sim::Scheduler& sched, const DumbbellConfig& cfg) : sched_(sched), cfg_(cfg) {
  // Node ids: clients 1-2, routers 3-4, servers 5-6.
  clients_.push_back(std::make_unique<Host>(1, "client1"));
  clients_.push_back(std::make_unique<Host>(2, "client2"));
  router1_ = std::make_unique<Router>(3, "router1-wash");
  router2_ = std::make_unique<Router>(4, "router2-ncsa");
  servers_.push_back(std::make_unique<Host>(5, "server1"));
  servers_.push_back(std::make_unique<Host>(6, "server2"));

  auto fifo = [&](const char* tag) {
    (void)tag;
    return std::make_unique<aqm::FifoQueue>(sched_, cfg_.access_buffer_bytes);
  };

  // Client NICs (Clemson → WASH) and the return ports.
  Port* c1_up = add_port(fifo("c1"), cfg_.access_bps, cfg_.client_delay, router1_.get(), "c1->r1");
  Port* c2_up = add_port(fifo("c2"), cfg_.access_bps, cfg_.client_delay, router1_.get(), "c2->r1");
  Port* r1_c1 = add_port(fifo("r1c1"), cfg_.access_bps, cfg_.client_delay, clients_[0].get(), "r1->c1");
  Port* r1_c2 = add_port(fifo("r1c2"), cfg_.access_bps, cfg_.client_delay, clients_[1].get(), "r1->c2");
  clients_[0]->attach_nic(c1_up);
  clients_[1]->attach_nic(c2_up);

  // The bottleneck: router1 → router2, shaped to the configured rate with
  // the experiment's AQM (the `tc` target in the paper). The reverse
  // direction is an unshaped 100G trunk.
  auto bottleneck_q = aqm::make_queue_disc(cfg_.aqm, sched_, cfg_.bottleneck_buffer_bytes,
                                           cfg_.seed, cfg_.ecn);
  bottleneck_ = add_port(std::move(bottleneck_q), cfg_.bottleneck_bps, cfg_.trunk_delay,
                         router2_.get(), "r1->r2(bottleneck)");
  if (cfg_.random_loss > 0 || cfg_.ge_loss.enabled()) {
    bottleneck_->set_arrival_loss(fault::ArrivalLoss(cfg_.random_loss, cfg_.ge_loss, cfg_.seed));
  }
  Port* r2_r1 = add_port(fifo("trunkrev"), cfg_.trunk_bps, cfg_.trunk_delay, router1_.get(), "r2->r1");

  // Server side (NCSA → TACC).
  Port* r2_s1 = add_port(fifo("r2s1"), cfg_.access_bps, cfg_.server_delay, servers_[0].get(), "r2->s1");
  Port* r2_s2 = add_port(fifo("r2s2"), cfg_.access_bps, cfg_.server_delay, servers_[1].get(), "r2->s2");
  Port* s1_up = add_port(fifo("s1"), cfg_.access_bps, cfg_.server_delay, router2_.get(), "s1->r2");
  Port* s2_up = add_port(fifo("s2"), cfg_.access_bps, cfg_.server_delay, router2_.get(), "s2->r2");
  servers_[0]->attach_nic(s1_up);
  servers_[1]->attach_nic(s2_up);

  // Static routes, as in the paper's Layer 3 setup.
  router1_->set_route(1, r1_c1);
  router1_->set_route(2, r1_c2);
  router1_->set_route(5, bottleneck_);
  router1_->set_route(6, bottleneck_);
  router2_->set_route(5, r2_s1);
  router2_->set_route(6, r2_s2);
  router2_->set_route(1, r2_r1);
  router2_->set_route(2, r2_r1);
}

}  // namespace elephant::net
