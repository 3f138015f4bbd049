#pragma once

#include <cstdint>
#include <vector>

#include "aqm/codel.hpp"
#include "aqm/queue_disc.hpp"
#include "sim/ring_deque.hpp"

namespace elephant::aqm {

/// FQ-CoDel configuration (RFC 8290 / Linux `sch_fq_codel` defaults, with the
/// quantum raised to one jumbo MTU as `tc` does on 9k-MTU interfaces).
struct FqCodelConfig {
  std::size_t memory_limit_bytes = 0;  ///< total backlog cap (the buffer size)
  std::uint32_t flows = 1024;          ///< number of hash buckets
  std::uint32_t quantum = 9066;        ///< DRR quantum in bytes
  CodelParams codel{};
};

/// Fair Queuing with Controlled Delay (RFC 8290).
///
/// Arriving packets are hashed by flow id into one of `flows` sub-queues.
/// Sub-queues are served by deficit round-robin with a two-tier (new/old)
/// flow list, and each sub-queue runs its own CoDel controller. When the
/// total backlog exceeds the memory limit, packets are culled from the head
/// of the fattest sub-queue, exactly as the Linux implementation does.
///
/// The fattest sub-queue is read off a tournament (winner) tree over the
/// per-bucket backlogs instead of a scan of every bucket: each internal node
/// holds the fatter of its two children, ties going to the lower bucket
/// index — the first-max rule of a linear scan — so the victim is the same
/// bucket a scan would pick. A backlog change only marks its bucket stale;
/// the next overflow re-seats each stale leaf in O(log flows) before reading
/// the root, so a queue below its limit never climbs the tree.
class FqCodelQueue : public QueueDisc {
 public:
  FqCodelQueue(sim::Scheduler& sched, FqCodelConfig cfg);

  bool enqueue(net::Packet&& p) override;
  std::optional<net::Packet> dequeue() override;

  [[nodiscard]] std::size_t byte_length() const override { return total_bytes_; }
  [[nodiscard]] std::size_t packet_length() const override { return total_packets_; }
  [[nodiscard]] std::string name() const override { return "fq_codel"; }

  [[nodiscard]] std::uint32_t active_flows() const;
  [[nodiscard]] const FqCodelConfig& config() const { return cfg_; }
  /// The hash bucket packets of `flow` queue in.
  [[nodiscard]] std::uint32_t bucket_of(net::FlowId flow) const;

 private:
  enum class ListState : std::uint8_t { kNone, kNew, kOld };

  using FlowList = sim::RingDeque<std::uint32_t>;

  /// One hash bucket. Its byte backlog lives in `backlogs_`, not here, so
  /// tree updates touch one dense array instead of the bucket stride.
  struct SubQueue {
    sim::RingDeque<net::Packet> pkts;
    std::int64_t deficit = 0;
    CodelState codel{};
    ListState in_list = ListState::kNone;
  };

  /// codel_dequeue adaptor over one sub-queue; keeps aggregate counters honest.
  struct Access {
    FqCodelQueue& fq;
    std::uint32_t bucket;
    [[nodiscard]] bool empty() const { return fq.queues_[bucket].pkts.empty(); }
    [[nodiscard]] std::size_t byte_length() const { return fq.backlogs_[bucket]; }
    net::Packet pop_front_packet();
  };

  /// `backlogs_[b]` changed: queue b's leaf for re-seating.
  void mark_stale(std::uint32_t b);
  /// Re-seat every stale leaf, then return the fattest bucket.
  [[nodiscard]] std::uint32_t fattest();
  /// Restore the tournament invariant on the path from bucket `b`'s leaf to
  /// the root after `backlogs_[b]` changed.
  void reseat(std::uint32_t b);
  void drop_from_fattest();
  /// DRR loop; instantiated with and without flight-recorder hooks so the
  /// untraced dequeue path carries no tracing code (see dequeue()).
  template <bool kTraced>
  std::optional<net::Packet> dequeue_impl();

  FqCodelConfig cfg_;
  std::vector<SubQueue> queues_;
  /// Byte backlog per bucket, padded with zeros up to `leaves_` entries.
  std::vector<std::size_t> backlogs_;
  /// Tournament tree: node k (1 <= k < leaves_) holds the fatter bucket of
  /// its children 2k and 2k+1; leaf leaves_ + i holds bucket i. Once the
  /// stale leaves are re-seated, tree_[1] is the fattest bucket (lowest index
  /// among equals).
  std::vector<std::uint32_t> tree_;
  std::uint32_t leaves_ = 1;               ///< next power of two >= cfg_.flows
  std::vector<std::uint8_t> stale_;        ///< 1 = bucket waits in stale_list_
  std::vector<std::uint32_t> stale_list_;  ///< buckets changed since fattest()
  FlowList new_flows_;
  FlowList old_flows_;
  std::size_t total_bytes_ = 0;
  std::size_t total_packets_ = 0;
};

}  // namespace elephant::aqm
