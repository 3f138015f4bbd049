#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "sim/snapshot.hpp"

namespace elephant::net {

class Port;

/// Anything that terminates a flow on a host: a TCP sender or receiver.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void on_packet(Packet&& p) = 0;
};

/// A network node addressed by NodeId.
class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  virtual void receive(Packet&& p) = 0;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  NodeId id_;
  std::string name_;
};

/// A router: forwards by destination using a static route table (the paper
/// configured static routes on the FABRIC routing nodes).
class Router : public Node {
 public:
  using Node::Node;

  void set_route(NodeId dst, Port* out) { routes_[dst] = out; }
  void receive(Packet&& p) override;

  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }
  [[nodiscard]] std::uint64_t no_route_drops() const { return no_route_drops_; }

  /// Serialize the mutable state (counters only — the route table is static
  /// after topology construction).
  void save(sim::SnapshotWriter& w) const {
    w.put_u64(forwarded_);
    w.put_u64(no_route_drops_);
  }

 private:
  std::unordered_map<NodeId, Port*> routes_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t no_route_drops_ = 0;
};

/// An end host with a single NIC; demultiplexes arriving packets to the
/// registered per-flow endpoint (data to receivers, ACKs to senders).
///
/// Flow ids are small dense integers (FlowFactory numbers them 1..N), so the
/// endpoint table is a flat vector indexed by flow id: the per-packet
/// demultiplex is one predictable load instead of a hash-bucket chase —
/// at 100k flows the unordered_map paid two cache misses per delivered
/// packet right on the hot path.
class Host : public Node {
 public:
  using Node::Node;

  void attach_nic(Port* nic) { nic_ = nic; }
  void register_endpoint(FlowId flow, PacketHandler* h) {
    if (flow >= endpoints_.size()) {
      endpoints_.resize(std::max<std::size_t>(flow + 1, endpoints_.size() * 2), nullptr);
    }
    endpoints_[flow] = h;
  }

  /// Send a locally originated packet out of the NIC.
  void transmit(Packet&& p);

  void receive(Packet&& p) override;

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t no_endpoint_drops() const { return no_endpoint_drops_; }

  /// Serialize the mutable state (counters only — the NIC binding and the
  /// endpoint table are fixed at cell setup).
  void save(sim::SnapshotWriter& w) const {
    w.put_u64(delivered_);
    w.put_u64(no_endpoint_drops_);
  }

 private:
  Port* nic_ = nullptr;
  std::vector<PacketHandler*> endpoints_;  ///< indexed by FlowId; null = unbound
  std::uint64_t delivered_ = 0;
  std::uint64_t no_endpoint_drops_ = 0;
};

}  // namespace elephant::net
