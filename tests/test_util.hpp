#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exp/config.hpp"
#include "exp/manifest.hpp"
#include "exp/runner.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"

namespace elephant::test {

/// A data packet of `size` bytes for queue-disc tests.
[[nodiscard]] net::Packet make_packet(net::FlowId flow, std::uint64_t seq,
                                      std::uint32_t size = 8900);

/// A quick, small experiment config for integration tests: low bandwidth so
/// wall time stays negligible.
[[nodiscard]] exp::ExperimentConfig quick_config(cca::CcaKind cca1, cca::CcaKind cca2,
                                                 aqm::AqmKind aqm, double buffer_bdp = 2.0,
                                                 double bw = 100e6, double duration_s = 30);

/// A one-flow traffic class: `kind` running `cca` on dumbbell `side`, starting
/// exactly at `start_s`; `bytes` is a finite transfer's size or an on/off
/// source's burst size.
[[nodiscard]] workload::TrafficClass one_flow(workload::ClassKind kind, cca::CcaKind cca,
                                              double bytes = 0, double start_s = 0,
                                              int side = 0);

/// A 100M FIFO cell with a 2-BDP buffer running only `classes` for
/// `duration_s` simulated seconds.
[[nodiscard]] exp::ExperimentConfig class_cell(std::vector<workload::TrafficClass> classes,
                                               double duration_s);

/// run_experiment: a fresh simulation, never served from a sweep journal.
[[nodiscard]] exp::ExperimentResult run_uncached(const exp::ExperimentConfig& cfg);

/// Append `entries` to the sweep journal at `path` through SweepManifest, as
/// a sweep would. False if any write failed (or another holds the journal).
[[nodiscard]] bool append_journal(const std::filesystem::path& path,
                                  const std::vector<exp::ManifestEntry>& entries);

/// The latest journal line per cell id, read line by line; unparseable lines
/// are skipped.
[[nodiscard]] std::map<std::string, exp::ManifestEntry> latest_entries(
    const std::filesystem::path& path);

/// A sweep journal path in a fresh temporary directory named after `tag`
/// and this process; the directory is removed with the object.
class TempJournal {
 public:
  explicit TempJournal(const std::string& tag);
  ~TempJournal();
  TempJournal(const TempJournal&) = delete;
  TempJournal& operator=(const TempJournal&) = delete;

  [[nodiscard]] std::filesystem::path path() const { return dir_ / "runs.jsonl"; }

 private:
  std::filesystem::path dir_;
};

}  // namespace elephant::test
