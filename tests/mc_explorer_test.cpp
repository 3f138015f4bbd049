// Model-checker exploration: the ScheduleController steers runs down
// prescribed branch prefixes, the Explorer enumerates bounded-depth
// schedules with end-state dedup, oracle violations serialize to a
// replayable choice trace, and replay reproduces the identical failure.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "exp/config.hpp"
#include "exp/result_digest.hpp"
#include "exp/runner.hpp"
#include "fault/fault.hpp"
#include "mc/choice_trace.hpp"
#include "mc/controller.hpp"
#include "mc/explorer.hpp"
#include "trace/sinks.hpp"
#include "trace/trace.hpp"

namespace elephant {
namespace {

// The acceptance cell: two flows over a small bottleneck with a loss burst
// covering the middle of the run — every in-burst packet is a kFaultLoss
// branch, so the schedule space is rich but each schedule is milliseconds.
exp::ExperimentConfig fault_cell() {
  exp::ExperimentConfig cfg;
  cfg.cca1 = cca::CcaKind::kCubic;
  cfg.cca2 = cca::CcaKind::kBbrV1;
  cfg.aqm = aqm::AqmKind::kFifo;
  cfg.buffer_bdp = 1.0;
  cfg.bottleneck_bps = 20e6;
  cfg.total_flows = 2;
  cfg.duration = sim::Time::seconds(1);
  cfg.seed = 7;
  for (const fault::FaultEvent& e :
       fault::FaultPlan::loss_burst(sim::Time::seconds(0.2), 0.05, sim::Time::seconds(0.5))
           .events) {
    cfg.fault_plan.add(e);
  }
  return cfg;
}

// The cell `elephant explore` builds from `--cca1 A --cca2 B --aqm Q --bw 20e6
// --flows 2 --duration 1 --seed S` (the default 2 BDP buffer).
exp::ExperimentConfig cli_cell(cca::CcaKind cca1, cca::CcaKind cca2, aqm::AqmKind aqm,
                               std::uint64_t seed) {
  exp::ExperimentConfig cfg;
  cfg.cca1 = cca1;
  cfg.cca2 = cca2;
  cfg.aqm = aqm;
  cfg.bottleneck_bps = 20e6;
  cfg.total_flows = 2;
  cfg.duration = sim::Time::seconds(1);
  cfg.seed = seed;
  return cfg;
}

// ... plus `--fault-loss 0.2:0.05:0.5`.
exp::ExperimentConfig cli_fault_cell() {
  exp::ExperimentConfig cfg =
      cli_cell(cca::CcaKind::kCubic, cca::CcaKind::kBbrV1, aqm::AqmKind::kFifo, 7);
  for (const fault::FaultEvent& e :
       fault::FaultPlan::loss_burst(sim::Time::seconds(0.2), 0.05, sim::Time::seconds(0.5))
           .events) {
    cfg.fault_plan.add(e);
  }
  return cfg;
}

TEST(ChoiceTrace, SerializeParseRoundTrip) {
  mc::ChoiceTrace t;
  t.config_id = "cubic_vs_bbr1-fifo-bdp1-20M";
  t.oracle = "jain_floor";
  t.detail = "jain2 0.7 below floor 0.9 (S1 3 Mbps, S2 15 Mbps)";
  t.at_s = 1.25;
  t.state_hash = 0xdeadbeefcafef00dull;
  t.horizon_s = 1.5;
  t.window_s = 0.25;
  t.jain_floor = 0.9;
  t.retx_storm_segments = 500;
  t.max_schedule_events = 1000000;
  t.choices = {{sim::ChoiceKind::kSchedulerTie, 3, 2},
               {sim::ChoiceKind::kFaultLoss, 2, 0},
               {sim::ChoiceKind::kGeLoss, 2, 1}};

  mc::ChoiceTrace back;
  std::string error;
  ASSERT_TRUE(mc::ChoiceTrace::parse(t.serialize(), &back, &error)) << error;
  EXPECT_EQ(back.config_id, t.config_id);
  EXPECT_EQ(back.oracle, t.oracle);
  EXPECT_EQ(back.detail, t.detail);
  EXPECT_EQ(back.at_s, t.at_s);
  EXPECT_EQ(back.state_hash, t.state_hash);
  EXPECT_EQ(back.horizon_s, t.horizon_s);
  EXPECT_EQ(back.window_s, t.window_s);
  EXPECT_EQ(back.jain_floor, t.jain_floor);
  EXPECT_EQ(back.retx_storm_segments, t.retx_storm_segments);
  EXPECT_EQ(back.max_schedule_events, t.max_schedule_events);
  ASSERT_EQ(back.choices.size(), t.choices.size());
  for (std::size_t i = 0; i < t.choices.size(); ++i) {
    EXPECT_EQ(back.choices[i].kind, t.choices[i].kind);
    EXPECT_EQ(back.choices[i].n_branches, t.choices[i].n_branches);
    EXPECT_EQ(back.choices[i].chosen, t.choices[i].chosen);
  }

  EXPECT_FALSE(mc::ChoiceTrace::parse("not a trace", &back, &error));
}

// The reader is strict: each bad file below must be refused with an error
// naming its defect, never half-parsed into zeros.
TEST(ChoiceTrace, RejectsMalformedFiles) {
  mc::ChoiceTrace t;
  t.config_id = "cubic_vs_bbr1-fifo-bdp1-20M";
  t.oracle = "jain_floor";
  t.state_hash = 0xdeadbeefcafef00dull;
  t.choices = {{sim::ChoiceKind::kSchedulerTie, 3, 2}, {sim::ChoiceKind::kFaultLoss, 2, 0}};
  const std::string good = t.serialize();
  const auto edit = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };

  struct Case {
    const char* name;
    std::string text;
    const char* error;  ///< substring the error must contain
  };
  const Case cases[] = {
      {"v1 header", edit("elephant-choice-trace v3", "elephant-choice-trace v1"),
       "older engine"},
      {"v2 header", edit("elephant-choice-trace v3", "elephant-choice-trace v2"),
       "older engine"},
      {"unknown header", edit("elephant-choice-trace v3", "elephant-choice-trace v4"),
       "bad header"},
      {"garbage number", edit("at_s 0\n", "at_s zero\n"), "bad at_s"},
      {"trailing bytes on a number", edit("jain_floor 0\n", "jain_floor 0.5x\n"),
       "bad jain_floor"},
      {"empty number", edit("horizon_s 0\n", "horizon_s\n"), "bad horizon_s"},
      {"decimal where hex is due", edit("deadbeefcafef00d", "deadbeefcafef00z"),
       "bad state_hash"},
      {"negative count", edit("retx_storm 0\n", "retx_storm -1\n"), "bad retx_storm"},
      {"huge choice count", edit("choices 2\n", "choices 18446744073709551615\n"),
       "bad choice row 2"},
      {"too few rows", edit("choices 2\n", "choices 3\n"), "bad choice row 2"},
      {"too many rows", edit("choices 2\n", "choices 1\n"), "trailing data"},
      {"unknown kind", edit("\n0 3 2\n", "\n7 3 2\n"), "bad choice row 0"},
      {"chosen out of range", edit("\n0 3 2\n", "\n0 3 3\n"), "bad choice row 0"},
      {"short row", edit("\n0 3 2\n", "\n0 3\n"), "bad choice row 0"},
      {"row with trailing bytes", edit("\n0 3 2\n", "\n0 3 2 9\n"), "bad choice row 0"},
      {"row with garbage", edit("\n0 3 2\n", "\n0 x 2\n"), "bad choice row 0"},
  };
  for (const Case& c : cases) {
    mc::ChoiceTrace back;
    std::string error;
    EXPECT_FALSE(mc::ChoiceTrace::parse(c.text, &back, &error)) << c.name;
    EXPECT_NE(error.find(c.error), std::string::npos)
        << c.name << ": error was '" << error << "'";
  }
}

// An attached controller with an empty plan takes branch 0 everywhere — by
// the choice-point protocol that IS the seeded schedule, so the result must
// be bit-identical to a hook-free run of the same cell.
TEST(McExplorer, EmptyPlanMatchesHookFreeRun) {
  const exp::ExperimentConfig cfg = fault_cell();
  const std::uint64_t want = exp::metrics_digest(exp::run_experiment(cfg));

  mc::ScheduleController controller;
  controller.reset({});
  exp::ExperimentConfig steered = cfg;
  steered.choice_hook = &controller;
  EXPECT_EQ(exp::metrics_digest(exp::run_experiment(steered)), want);
  EXPECT_GT(controller.trace().size(), 0u) << "fault cell consulted no choice points";
}

// Acceptance: bounded exploration of the 2-flow fault cell enumerates at
// least 50 distinct schedules, with the dedup set accounting for every run.
TEST(McExplorer, EnumeratesDistinctSchedules) {
  mc::ExplorerOptions opts;
  opts.max_depth = 8;
  opts.max_schedules = 120;
  mc::Explorer explorer(fault_cell(), opts);
  const mc::ExploreStats st = explorer.explore();

  EXPECT_GE(st.distinct_states, 50u);
  EXPECT_EQ(st.schedules_run, st.distinct_states + st.duplicate_states);
  EXPECT_GT(st.max_choice_points, opts.max_depth) << "cell too small to exercise the bound";
  EXPECT_TRUE(explorer.violations().empty());
}

// Flipping one fault-loss branch must actually change the run: the first
// alternative schedule may not collapse back onto the seeded end state.
TEST(McExplorer, BranchesProduceDifferentStates) {
  mc::ExplorerOptions opts;
  opts.max_depth = 1;  // seeded run + every branch of the first choice point
  opts.max_schedules = 4;
  mc::Explorer explorer(fault_cell(), opts);
  const mc::ExploreStats st = explorer.explore();
  EXPECT_GE(st.distinct_states, 2u);
}

// Acceptance: a planted violation is found, its choice trace serializes to
// a file, and replaying the file reproduces the identical failure — same
// oracle, same detail, same end-state hash.
TEST(McExplorer, PlantedViolationReplaysIdentically) {
  const exp::ExperimentConfig cfg = fault_cell();
  const std::string path = testing::TempDir() + "mc_counterexample.trace";

  mc::ExplorerOptions opts;
  opts.max_depth = 6;
  opts.max_schedules = 40;
  // Plant: under the loss burst this cell's Jain index sits far below 0.99
  // in every schedule, so the very first one is a counterexample.
  opts.jain_floor = 0.99;
  opts.trace_out = path;
  mc::Explorer explorer(cfg, opts);
  const mc::ExploreStats st = explorer.explore();
  ASSERT_GT(st.violations, 0u);
  const mc::Violation& v = explorer.violations().front();
  EXPECT_EQ(v.oracle, "jain_floor");

  mc::ChoiceTrace stored;
  std::string error;
  ASSERT_TRUE(mc::ChoiceTrace::read_file(path, &stored, &error)) << error;
  EXPECT_EQ(stored.config_id, cfg.id());
  EXPECT_EQ(stored.oracle, v.oracle);
  EXPECT_EQ(stored.state_hash, v.trace.state_hash);
  ASSERT_EQ(stored.choices.size(), v.trace.choices.size());

  // One pass verifies the schedule and records its flight-recorder trace.
  trace::MemorySink sink;
  trace::Tracer recorder(sink, /*capacity=*/4096);
  const mc::Explorer::ReplayReport rep = mc::Explorer::replay(cfg, stored, &recorder);
  EXPECT_TRUE(rep.ok());
  EXPECT_FALSE(sink.records().empty()) << "the replay recorded no trace";
  EXPECT_TRUE(rep.config_matches);
  EXPECT_FALSE(rep.diverged);
  EXPECT_TRUE(rep.hash_matches) << "replay end-state hash drifted";
  EXPECT_TRUE(rep.violation_reproduced);
  EXPECT_EQ(rep.oracle, v.oracle);
  EXPECT_EQ(rep.detail, v.detail);
  EXPECT_EQ(rep.at_s, v.at_s);
  EXPECT_TRUE(rep.ok());

  std::remove(path.c_str());
}

// Bernoulli arrival loss is a choice point too: a 2-flow cell with 5%
// random loss offers kArrivalLoss branches, and a planted violation on it
// replays onto the identical end state.
TEST(McExplorer, ArrivalLossBranchesAndReplays) {
  exp::ExperimentConfig cfg = fault_cell();
  cfg.fault_plan = {};
  cfg.random_loss = 0.05;
  const std::string path = testing::TempDir() + "mc_arrival_loss.trace";

  mc::ExplorerOptions opts;
  opts.max_depth = 4;
  opts.max_schedules = 8;
  opts.jain_floor = 0.99;
  opts.trace_out = path;
  mc::Explorer explorer(cfg, opts);
  const mc::ExploreStats st = explorer.explore();
  EXPECT_GE(st.distinct_states, 2u);
  ASSERT_GT(st.violations, 0u);

  mc::ChoiceTrace stored;
  std::string error;
  ASSERT_TRUE(mc::ChoiceTrace::read_file(path, &stored, &error)) << error;
  std::size_t arrival = 0;
  for (const mc::ChoiceRec& c : stored.choices) {
    if (c.kind == sim::ChoiceKind::kArrivalLoss) {
      EXPECT_EQ(c.n_branches, 2u);
      ++arrival;
    }
  }
  EXPECT_GT(arrival, 0u) << "the lossy cell offered no kArrivalLoss branch";

  const mc::Explorer::ReplayReport rep = mc::Explorer::replay(cfg, stored);
  EXPECT_FALSE(rep.diverged);
  EXPECT_TRUE(rep.hash_matches) << "replay end-state hash drifted";
  EXPECT_TRUE(rep.ok());

  std::remove(path.c_str());
}

// Exact exploration statistics on two CLI cells. Every count depends on the
// schedules the engine runs and on the end-state hashes that dedup them, so
// a change to either shows up here as a changed number.
TEST(McExplorer, StatsMatchGolden) {
  struct Case {
    const char* name;
    exp::ExperimentConfig cfg;
    std::uint32_t depth;
    std::uint64_t schedules;
    mc::ExploreStats want;
  };
  exp::ExperimentConfig red_loss =
      cli_cell(cca::CcaKind::kBbrV2, cca::CcaKind::kCubic, aqm::AqmKind::kRed, 5);
  red_loss.random_loss = 0.01;
  mc::ExploreStats fault_want;
  fault_want.schedules_run = 60;
  fault_want.distinct_states = 60;
  fault_want.max_choice_points = 137;
  fault_want.frontier_left = 17;
  mc::ExploreStats red_want;
  red_want.schedules_run = 60;
  red_want.distinct_states = 54;
  red_want.duplicate_states = 6;
  red_want.max_choice_points = 330;
  red_want.frontier_left = 34;
  const Case cases[] = {
      // --fault-loss 0.2:0.05:0.5 --depth 8 --schedules 60
      {"fault burst", cli_fault_cell(), 8, 60, fault_want},
      // bbr2 vs cubic, red, --loss 0.01 --depth 10 --schedules 60
      {"red arrival loss", red_loss, 10, 60, red_want},
  };
  for (const Case& c : cases) {
    mc::ExplorerOptions opts;
    opts.max_depth = c.depth;
    opts.max_schedules = c.schedules;
    mc::Explorer explorer(c.cfg, opts);
    const mc::ExploreStats st = explorer.explore();
    EXPECT_EQ(st.schedules_run, c.want.schedules_run) << c.name;
    EXPECT_EQ(st.distinct_states, c.want.distinct_states) << c.name;
    EXPECT_EQ(st.duplicate_states, c.want.duplicate_states) << c.name;
    EXPECT_EQ(st.truncated, c.want.truncated) << c.name;
    EXPECT_EQ(st.max_choice_points, c.want.max_choice_points) << c.name;
    EXPECT_EQ(st.frontier_left, c.want.frontier_left) << c.name;
    EXPECT_EQ(st.violations, c.want.violations) << c.name;
  }
}

// tests/data/jain_floor_counterexample.v3.trace was written by
//   elephant explore --cca1 cubic --cca2 bbr1 --aqm fifo --bw 20e6 --flows 2
//     --duration 1 --seed 7 --fault-loss 0.2:0.05:0.5 --depth 6
//     --schedules 20 --jain-floor 0.99 --trace-out FILE
// It must keep replaying onto the same end state: the state hash is FNV
// over the components' save() bytes, so a changed schedule or a changed
// save() layout fails here.
TEST(McExplorer, CheckedInTraceReplays) {
  const exp::ExperimentConfig cfg = cli_fault_cell();
  mc::ChoiceTrace stored;
  std::string error;
  ASSERT_TRUE(mc::ChoiceTrace::read_file(
      std::string(ELEPHANT_TEST_DATA_DIR) + "/jain_floor_counterexample.v3.trace", &stored,
      &error))
      << error;
  EXPECT_EQ(stored.config_id, cfg.id());
  EXPECT_EQ(stored.state_hash, 0x134fca53d33cd51eull);
  const mc::Explorer::ReplayReport rep = mc::Explorer::replay(cfg, stored);
  EXPECT_EQ(rep.end_state_hash, 0x134fca53d33cd51eull);
  EXPECT_EQ(rep.oracle, "jain_floor");
  EXPECT_TRUE(rep.ok());
}

// Replay against the wrong cell must refuse via the config identity echo.
TEST(McExplorer, ReplayRejectsMismatchedConfig) {
  exp::ExperimentConfig cfg = fault_cell();
  mc::ExplorerOptions opts;
  opts.max_depth = 2;
  opts.max_schedules = 2;
  opts.jain_floor = 0.99;
  mc::Explorer explorer(cfg, opts);
  explorer.explore();
  ASSERT_FALSE(explorer.violations().empty());

  exp::ExperimentConfig other = cfg;
  other.seed = cfg.seed + 1;
  const mc::Explorer::ReplayReport rep =
      mc::Explorer::replay(other, explorer.violations().front().trace);
  EXPECT_FALSE(rep.config_matches);
  EXPECT_FALSE(rep.ok());
}

// The starvation and retransmit-storm oracles fire on a cell engineered to
// trip them: a hard 60% loss burst stalls both flows' delivery for longer
// than the probe window.
TEST(McExplorer, WindowedOraclesDetectStalls) {
  exp::ExperimentConfig cfg = fault_cell();
  cfg.fault_plan = fault::FaultPlan{};
  for (const fault::FaultEvent& e :
       fault::FaultPlan::loss_burst(sim::Time::seconds(0.2), 0.6, sim::Time::seconds(0.6))
           .events) {
    cfg.fault_plan.add(e);
  }
  mc::ExplorerOptions opts;
  opts.max_depth = 4;
  opts.max_schedules = 8;
  opts.starvation_window_s = 0.1;
  mc::Explorer explorer(cfg, opts);
  explorer.explore();
  ASSERT_FALSE(explorer.violations().empty());
  const mc::Violation& v = explorer.violations().front();
  EXPECT_EQ(v.oracle, "starvation");
  EXPECT_GT(v.at_s, 0.0);
  EXPECT_LT(v.at_s, 1.0) << "starvation must be detected mid-run, not at the horizon";

  // Same cell, retransmit-storm detector: the burst forces a storm of
  // retransmissions well above a deliberately tiny per-window threshold.
  mc::ExplorerOptions storm;
  storm.max_depth = 4;
  storm.max_schedules = 8;
  storm.retx_storm_segments = 5;
  mc::Explorer explorer2(cfg, storm);
  explorer2.explore();
  ASSERT_FALSE(explorer2.violations().empty());
  EXPECT_EQ(explorer2.violations().front().oracle, "retx_storm");
}

}  // namespace
}  // namespace elephant
