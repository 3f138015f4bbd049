#include "aqm/fq_codel.hpp"

#include <bit>
#include <cassert>
#include <utility>

namespace elephant::aqm {

FqCodelQueue::FqCodelQueue(sim::Scheduler& sched, FqCodelConfig cfg)
    : QueueDisc(sched),
      cfg_(cfg),
      queues_(cfg.flows),
      backlogs_(std::bit_ceil(cfg.flows)),
      tree_(2 * backlogs_.size()),
      leaves_(static_cast<std::uint32_t>(backlogs_.size())),
      stale_(cfg.flows) {
  assert(cfg_.flows > 0);
  assert(cfg_.memory_limit_bytes > 0);
  stale_list_.reserve(cfg_.flows);
  for (std::uint32_t i = 0; i < leaves_; ++i) tree_[leaves_ + i] = i;
  // Every backlog is zero, so each internal node holds the lowest bucket
  // below it.
  for (std::uint32_t k = leaves_ - 1; k != 0; --k) tree_[k] = tree_[2 * k];
}

std::uint32_t FqCodelQueue::bucket_of(net::FlowId flow) const {
  // splitmix-style avalanche so sequential flow ids spread across buckets.
  std::uint64_t x = flow + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x % cfg_.flows);
}

void FqCodelQueue::mark_stale(std::uint32_t b) {
  if (stale_[b] != 0) return;
  stale_[b] = 1;
  stale_list_.push_back(b);
}

std::uint32_t FqCodelQueue::fattest() {
  for (const std::uint32_t b : stale_list_) {
    stale_[b] = 0;
    reseat(b);
  }
  stale_list_.clear();
  return tree_[1];
}

void FqCodelQueue::reseat(std::uint32_t b) {
  // Climb from b's leaf, carrying the winner of the subtree below: each
  // level only reads the sibling's winner.
  std::uint32_t win = b;
  std::size_t win_bytes = backlogs_[b];
  for (std::uint32_t child = leaves_ + b; child > 1; child >>= 1) {
    const std::uint32_t other = tree_[child ^ 1];
    const std::size_t other_bytes = backlogs_[other];
    // Ties go to the lower index, which lives in the left (even) child.
    if (other_bytes > win_bytes || (other_bytes == win_bytes && (child & 1) != 0)) {
      win = other;
      win_bytes = other_bytes;
    }
    std::uint32_t& node = tree_[child >> 1];
    // An unchanged winner other than b adds nothing new above this node. If
    // that winner is itself a stale leaf still waiting in fattest(), its own
    // climb passes through here and repairs the ancestors.
    if (node == win && win != b) return;
    node = win;
  }
}

void FqCodelQueue::drop_from_fattest() {
  const std::uint32_t b = fattest();
  SubQueue& sq = queues_[b];
  if (sq.pkts.empty()) return;
  net::Packet victim = std::move(sq.pkts.front());
  sq.pkts.pop_front();
  backlogs_[b] -= victim.size;
  mark_stale(b);
  total_bytes_ -= victim.size;
  --total_packets_;
  ++stats_.dropped_overflow;
  stats_.bytes_dropped += victim.size;
  trace_drop(victim, /*early=*/false);
}

bool FqCodelQueue::enqueue(net::Packet&& p) {
  const std::uint32_t b = bucket_of(p.flow);
  SubQueue& sq = queues_[b];

  p.enqueue_time = now();
  const std::uint32_t size = p.size;
  sq.pkts.push_back(std::move(p));
  backlogs_[b] += size;
  mark_stale(b);
  total_bytes_ += size;
  ++total_packets_;
  ++stats_.enqueued;
  stats_.bytes_enqueued += size;
  trace_enqueue(sq.pkts.back());

  if (sq.in_list == ListState::kNone) {
    sq.deficit = cfg_.quantum;
    sq.in_list = ListState::kNew;
    new_flows_.push_back(b);
  }

  // Like Linux, overflow culls from the fattest queue, which may or may not
  // be the one we just enqueued to.
  while (total_bytes_ > cfg_.memory_limit_bytes) drop_from_fattest();
  return true;
}

std::optional<net::Packet> FqCodelQueue::dequeue() {
  // Dispatch once per dequeue; the untraced instantiation carries no tracing
  // code at all, so the recorder costs nothing while detached.
  if (tracer() != nullptr) [[unlikely]] return dequeue_impl<true>();
  return dequeue_impl<false>();
}

template <bool kTraced>
std::optional<net::Packet> FqCodelQueue::dequeue_impl() {
  while (true) {
    FlowList* list = nullptr;
    if (!new_flows_.empty()) {
      list = &new_flows_;
    } else if (!old_flows_.empty()) {
      list = &old_flows_;
    } else {
      return std::nullopt;
    }

    const std::uint32_t b = list->front();
    SubQueue& sq = queues_[b];

    if (sq.deficit <= 0) {
      sq.deficit += cfg_.quantum;
      list->pop_front();
      sq.in_list = ListState::kOld;
      old_flows_.push_back(b);
      continue;
    }

    Access access{*this, b};
    auto pkt = codel_dequeue<kTraced>(access, sq.codel, cfg_.codel, now(), stats_, this);
    if (!pkt) {
      list->pop_front();
      if (list == &new_flows_) {
        // An emptied new flow gets one more round as an old flow so a
        // quick follow-up burst cannot re-enter the priority list (RFC 8290 §4.2).
        sq.in_list = ListState::kOld;
        old_flows_.push_back(b);
      } else {
        sq.in_list = ListState::kNone;
      }
      continue;
    }
    sq.deficit -= pkt->size;
    return pkt;
  }
}

net::Packet FqCodelQueue::Access::pop_front_packet() {
  SubQueue& sq = fq.queues_[bucket];
  net::Packet p = std::move(sq.pkts.front());
  sq.pkts.pop_front();
  fq.backlogs_[bucket] -= p.size;
  fq.mark_stale(bucket);
  fq.total_bytes_ -= p.size;
  --fq.total_packets_;
  return p;
}

std::uint32_t FqCodelQueue::active_flows() const {
  return static_cast<std::uint32_t>(new_flows_.size() + old_flows_.size());
}

}  // namespace elephant::aqm
