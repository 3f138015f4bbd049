#pragma once

#include "aqm/queue_disc.hpp"
#include "sim/ring_deque.hpp"

namespace elephant::aqm {

/// Drop-tail FIFO, byte-limited — the `pfifo`/`bfifo` baseline in the paper.
///
/// Packets are dropped only when accepting one would exceed the byte limit;
/// no proactive signalling of any kind.
class FifoQueue : public QueueDisc {
 public:
  FifoQueue(sim::Scheduler& sched, std::size_t limit_bytes)
      : QueueDisc(sched), limit_bytes_(limit_bytes) {}

  bool enqueue(net::Packet&& p) override;
  std::optional<net::Packet> dequeue() override;

  [[nodiscard]] std::size_t byte_length() const override { return bytes_; }
  [[nodiscard]] std::size_t packet_length() const override { return queue_.size(); }
  [[nodiscard]] std::string name() const override { return "fifo"; }
  [[nodiscard]] std::size_t limit_bytes() const { return limit_bytes_; }

  void save(sim::SnapshotWriter& w) const override;

 private:
  std::size_t limit_bytes_;
  std::size_t bytes_ = 0;
  sim::RingDeque<net::Packet> queue_;
};

}  // namespace elephant::aqm
