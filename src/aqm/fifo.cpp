#include "aqm/fifo.hpp"

#include <utility>

namespace elephant::aqm {

bool FifoQueue::enqueue(net::Packet&& p) {
  if (bytes_ + p.size > limit_bytes_) {
    ++stats_.dropped_overflow;
    stats_.bytes_dropped += p.size;
    trace_drop(p, /*early=*/false);
    return false;
  }
  bytes_ += p.size;
  ++stats_.enqueued;
  stats_.bytes_enqueued += p.size;
  p.enqueue_time = now();
  trace_enqueue(p);
  queue_.push_back(std::move(p));
  return true;
}

std::optional<net::Packet> FifoQueue::dequeue() {
  if (queue_.empty()) return std::nullopt;
  net::Packet p = std::move(queue_.front());
  queue_.pop_front();
  bytes_ -= p.size;
  ++stats_.dequeued;
  return p;
}

}  // namespace elephant::aqm
