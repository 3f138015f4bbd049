#include "test_util.hpp"

#include <unistd.h>

#include <fstream>

namespace elephant::test {

net::Packet make_packet(net::FlowId flow, std::uint64_t seq, std::uint32_t size) {
  net::Packet p;
  p.flow = flow;
  p.src = 1;
  p.dst = 5;
  p.seq = seq;
  p.size = size;
  return p;
}

exp::ExperimentConfig quick_config(cca::CcaKind cca1, cca::CcaKind cca2, aqm::AqmKind aqm,
                                   double buffer_bdp, double bw, double duration_s) {
  exp::ExperimentConfig cfg;
  cfg.cca1 = cca1;
  cfg.cca2 = cca2;
  cfg.aqm = aqm;
  cfg.buffer_bdp = buffer_bdp;
  cfg.bottleneck_bps = bw;
  cfg.duration = sim::Time::seconds(duration_s);
  cfg.seed = 7;
  return cfg;
}

workload::TrafficClass one_flow(workload::ClassKind kind, cca::CcaKind cca, double bytes,
                                double start_s, int side) {
  workload::TrafficClass tc;
  tc.name = "flow";
  tc.kind = kind;
  tc.cca = cca;
  tc.count = 1;
  tc.side = side;
  tc.start_offset = sim::Time::seconds(start_s);
  tc.start_window = sim::Time::zero();
  tc.size = workload::SizeSpec::fixed(bytes);
  return tc;
}

exp::ExperimentConfig class_cell(std::vector<workload::TrafficClass> classes,
                                 double duration_s) {
  exp::ExperimentConfig cfg = quick_config(cca::CcaKind::kCubic, cca::CcaKind::kCubic,
                                           aqm::AqmKind::kFifo, 2.0, 100e6, duration_s);
  cfg.workload.classes = std::move(classes);
  return cfg;
}

exp::ExperimentResult run_uncached(const exp::ExperimentConfig& cfg) {
  return exp::run_experiment(cfg);
}

bool append_journal(const std::filesystem::path& path,
                    const std::vector<exp::ManifestEntry>& entries) {
  exp::SweepManifest m(path);
  for (const exp::ManifestEntry& e : entries) {
    if (!m.append(e)) return false;
  }
  return true;
}

std::map<std::string, exp::ManifestEntry> latest_entries(const std::filesystem::path& path) {
  std::map<std::string, exp::ManifestEntry> latest;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    exp::ManifestEntry e;
    if (exp::SweepManifest::parse_line(line, &e)) latest[e.id] = std::move(e);
  }
  return latest;
}

TempJournal::TempJournal(const std::string& tag)
    : dir_(std::filesystem::temp_directory_path() /
           ("elephant_" + tag + "_" + std::to_string(::getpid()))) {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
}

TempJournal::~TempJournal() { std::filesystem::remove_all(dir_); }

}  // namespace elephant::test
