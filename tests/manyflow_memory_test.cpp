// Memory shape of a many-flow cell: building one makes no allocation large
// enough to land in its own mmap (so cells running side by side in a sweep
// neither page-fault a fresh multi-megabyte block per cell nor fragment the
// heap), and the per-flow state footprint stays at its measured value.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "alloc_hook.hpp"
#include "exp/cell.hpp"
#include "exp/config.hpp"
#include "tcp/tcp_sender.hpp"
#include "workload/workload.hpp"

namespace elephant {
namespace {

constexpr std::uint32_t kFlows = 20'000;

/// The BM_ManyFlowCell shape at 20k flows: finite 6-unit CUBIC flows
/// started over most of a short run through a 10G FIFO at aggregation 1.
exp::ExperimentConfig many_flow_config() {
  exp::ExperimentConfig cfg;
  cfg.cca1 = cca::CcaKind::kCubic;
  cfg.cca2 = cca::CcaKind::kCubic;
  cfg.aqm = aqm::AqmKind::kFifo;
  cfg.buffer_bdp = 1.0;
  cfg.bottleneck_bps = 10e9;
  cfg.aggregation = 1;
  cfg.duration = sim::Time::milliseconds(200);
  cfg.seed = 20260809;
  workload::TrafficClass flows;
  flows.name = "manyflow";
  flows.kind = workload::ClassKind::kFinite;
  flows.cca = cca::CcaKind::kCubic;
  flows.count = kFlows;
  flows.start_window = sim::Time::milliseconds(160);
  flows.size = workload::SizeSpec::fixed(6 * 8900.0);
  cfg.workload.classes.push_back(flows);
  return cfg;
}

TEST(ManyFlowMemory, CellBuildMakesNoAllocationAboveOneMiB) {
  test::reset_largest_alloc();
  exp::Cell cell(many_flow_config());
  const std::size_t largest = test::largest_alloc();
  ASSERT_EQ(cell.flows().size(), kFlows);
  EXPECT_LE(largest, std::size_t{1} << 20)
      << "building a " << kFlows << "-flow cell made a " << largest << "-byte allocation";
}

TEST(ManyFlowMemory, BytesPerFlowStayAtMeasuredValue) {
  exp::Cell cell(many_flow_config());
  (void)cell.run_to_completion();
  const exp::FlowFactory& flows = cell.flows();
  const double bytes_per_flow =
      static_cast<double>(flows.arena_bytes() + flows.scoreboard_peak_bytes()) / kFlows;
  // Measured on this config (x86-64, GCC 12). A rise past the band is a
  // per-flow state regression; a fall past it means the pin should move.
  constexpr double kMeasured = 1168;
  EXPECT_NEAR(bytes_per_flow, kMeasured, 0.1 * kMeasured)
      << "arena " << flows.arena_bytes() << " B + scoreboard peak "
      << flows.scoreboard_peak_bytes() << " B over " << kFlows << " flows";
  EXPECT_LE(sizeof(tcp::TcpSender), 560u);
}

}  // namespace
}  // namespace elephant
