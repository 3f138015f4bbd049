#pragma once

#include <vector>

#include "cca/arena.hpp"
#include "exp/config.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/slab.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"
#include "workload/workload.hpp"

namespace elephant::obs {
struct TcpMetrics;
}  // namespace elephant::obs

namespace elephant::exp {

class FlowFactory;

/// One instantiated flow plus the workload bookkeeping the runner needs to
/// aggregate per-class results after the run. Endpoints are raw pointers
/// into the factory's slabs (stable for the factory's lifetime), not owned
/// here — FlowInstance is plain data the completion thunk can use as its
/// context without any heap-allocated closure.
struct FlowInstance {
  tcp::TcpSender* sender = nullptr;
  tcp::TcpReceiver* receiver = nullptr;
  FlowFactory* owner = nullptr;  ///< back-pointer for the completion thunk
  int side = 0;
  int cls = -1;  ///< index into WorkloadSpec::classes; -1 for paper elephants
  workload::ClassKind kind = workload::ClassKind::kElephant;
  std::uint64_t transfer_bytes = 0;  ///< 0 = unbounded
  sim::Time start_time = sim::Time::zero();
};

/// Instantiates every flow of an experiment cell. spawn() is the only code
/// that wires a sender, a receiver and a CCA together; the two builders differ
/// only in where each flow's side, start time and seeds come from:
///  - Paper default (empty workload): build_paper() splits the cell's flows
///    across the two senders and draws each flow's CCA seed, then its start
///    time, from the shared cell RNG, in the order the golden digests pin.
///    These flows carry no traffic class and emit no kFlowStart record.
///  - Non-default workload: each traffic class draws its flows' start times
///    and sizes from its own RNG sub-stream and each flow's CCA seed from a
///    further per-flow stream (sim::derive_seed of the cell seed, the class
///    index and the flow index), so adding or editing one class never
///    perturbs another class's randomness. kFlowStart records are emitted per
///    flow, and finite flows emit kFlowEnd on completion.
///
/// Storage: flows, senders, receivers, and CCA state live in per-type slabs
/// (sim::Slab / cca::CcaArena) — three in-place constructions per flow into
/// contiguous chunks instead of three unique_ptr heap objects plus a
/// make_cca allocation plus std::function closures. The run's per-ACK walks
/// touch slab-dense memory, and the runner iterates flows by slab index.
///
/// The factory must outlive the scheduler run: finite flows' completion
/// callbacks point back into it.
class FlowFactory {
 public:
  /// `metrics` (optional) is attached to every sender and must outlive the
  /// run.
  FlowFactory(sim::Scheduler& sched, net::Dumbbell& net, const ExperimentConfig& cfg,
              sim::Rng& cell_rng, const obs::TcpMetrics* metrics = nullptr);

  FlowFactory(const FlowFactory&) = delete;
  FlowFactory& operator=(const FlowFactory&) = delete;

  [[nodiscard]] std::size_t size() const { return flows_.size(); }
  /// Flows are appended in construction order and never erased mid-run, so
  /// slab indices 0..size()-1 are dense and iteration by index walks
  /// contiguous chunk memory.
  [[nodiscard]] const FlowInstance& flow(std::size_t i) const {
    return flows_[static_cast<std::uint32_t>(i)];
  }
  [[nodiscard]] FlowInstance& flow(std::size_t i) {
    return flows_[static_cast<std::uint32_t>(i)];
  }

  /// Heap bytes pinned by the per-flow state slabs (flow records, senders,
  /// receivers, CCA state) — the denominator-free half of the RSS-per-flow
  /// telemetry. Excludes scoreboard windows; see scoreboard_peak_bytes().
  [[nodiscard]] std::size_t arena_bytes() const {
    return flows_.bytes() + senders_.bytes() + receivers_.bytes() + ccas_.bytes();
  }
  /// High-water of *concurrently live* scoreboard window bytes across every
  /// flow (a shared ledger updated on grow/release). Completed flows release
  /// their windows, so this — not the sum of per-flow peaks — is what bounds
  /// a many-flow cell's memory.
  [[nodiscard]] std::size_t scoreboard_peak_bytes() const {
    return scoreboard_ledger_.peak;
  }

 private:
  void build_paper(sim::Rng& cell_rng);
  void build_class(int ci, const workload::TrafficClass& tc);
  /// Build and start one flow. `ci` < 0 is a paper elephant: the side's CCA
  /// from the pair, no class fields, and `bytes` unused.
  FlowInstance& spawn(int ci, int side, sim::Time start, std::uint64_t bytes,
                      std::uint64_t cca_seed);

  /// Static completion callback: a FlowInstance* is the whole closure.
  static void flow_complete_thunk(void* ctx);

  sim::Scheduler& sched_;
  net::Dumbbell& net_;
  const ExperimentConfig& cfg_;
  const obs::TcpMetrics* metrics_ = nullptr;

  // Per-type arenas. Declaration order matters for teardown: flows_ (plain
  // data) first is fine anywhere, but senders_ must be destroyed before
  // ccas_ (senders hold raw CongestionControl*), i.e. declared after it.
  cca::CcaArena ccas_;
  sim::Slab<tcp::TcpReceiver> receivers_;
  sim::Slab<tcp::TcpSender> senders_;
  sim::Slab<FlowInstance> flows_;
  tcp::ScoreboardLedger scoreboard_ledger_;  ///< shared live-window account
};

}  // namespace elephant::exp
