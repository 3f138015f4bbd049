#include "exp/config.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "obs/json.hpp"

namespace elephant::exp {

double duration_scale() {
  static const double scale = [] {
    const char* env = std::getenv("ELEPHANT_DURATION_SCALE");
    if (env == nullptr) return 1.0;
    double v = 0;
    if (!obs::json::scan_number(std::string_view(env), &v) || !std::isfinite(v) || v <= 0) {
      throw std::invalid_argument(std::string("ELEPHANT_DURATION_SCALE='") + env +
                                  "' is not a finite positive number");
    }
    return v;
  }();
  return scale;
}

std::uint32_t ExperimentConfig::paper_flows_for(double bps) {
  if (bps <= 100e6) return 2;
  if (bps <= 500e6) return 10;
  if (bps <= 1e9) return 20;
  if (bps <= 10e9) return 200;
  return 500;
}

std::uint32_t ExperimentConfig::default_aggregation_for(double bps) {
  if (bps <= 100e6) return 1;
  if (bps <= 500e6) return 2;
  if (bps <= 1e9) return 4;
  if (bps <= 10e9) return 8;
  return 16;
}

sim::Time ExperimentConfig::default_duration_for(double bps) {
  // Shorter at high BW: cost per simulated second grows with the rate, and
  // the per-flow window (hence CUBIC's recovery time K) shrinks with the
  // Table 2 flow counts, so steady state arrives sooner. 100M keeps the
  // paper's full 200 s — its two-flow CUBIC sawtooth is the slowest to
  // converge and the cheapest to simulate.
  double secs = 200;
  if (bps > 100e6) secs = 120;
  if (bps > 500e6) secs = 90;
  if (bps > 1e9) secs = 60;
  if (bps > 10e9) secs = 45;
  return sim::Time::seconds(secs * duration_scale());
}

sim::Time ExperimentConfig::effective_duration() const {
  return duration != sim::Time::zero() ? duration : default_duration_for(bottleneck_bps);
}

std::string bw_label(double bps) {
  char buf[32];
  if (bps >= 1e9) {
    const double g = bps / 1e9;
    if (g == std::floor(g)) {
      std::snprintf(buf, sizeof(buf), "%.0fG", g);
    } else {
      std::snprintf(buf, sizeof(buf), "%.1fG", g);
    }
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fM", bps / 1e6);
  }
  return buf;
}

std::string ExperimentConfig::id() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s_vs_%s-%s-bdp%g-%s-f%u-d%g-a%u-r%g-s%llu%s%s%s",
                cca::to_string(cca1).c_str(), cca::to_string(cca2).c_str(),
                aqm::to_string(aqm).c_str(), buffer_bdp, bw_label(bottleneck_bps).c_str(),
                effective_flows(), effective_duration().sec(), effective_aggregation(),
                rtt.ms(), static_cast<unsigned long long>(seed), ecn ? "-ecn" : "",
                pace_all ? "-paceall" : "",
                random_loss > 0 ? ("-loss" + std::to_string(random_loss)).c_str() : "");
  std::string out = buf;
  if (ge_loss.enabled()) {
    std::snprintf(buf, sizeof(buf), "-ge%g,%g,%g,%g", ge_loss.p_good_to_bad,
                  ge_loss.p_bad_to_good, ge_loss.loss_good, ge_loss.loss_bad);
    out += buf;
  }
  if (!fault_plan.empty()) out += "-fault" + fault_plan.signature();
  if (!workload.is_paper_default()) out += "-wl[" + workload.signature() + "]";
  if (episodes.enabled) {
    std::snprintf(buf, sizeof(buf), "-ep%g,%g,%g", episodes.window_s,
                  episodes.enter_jain, episodes.exit_jain);
    out += buf;
  }
  return out;
}

std::string ExperimentConfig::label() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s vs %s, %s, %g BDP, %s",
                cca::to_string(cca1).c_str(), cca::to_string(cca2).c_str(),
                aqm::to_string(aqm).c_str(), buffer_bdp, bw_label(bottleneck_bps).c_str());
  std::string out = buf;
  if (!workload.is_paper_default()) {
    out += " +";
    for (const workload::TrafficClass& c : workload.classes) {
      if (c.kind == workload::ClassKind::kElephant) continue;
      out += " " + c.name;
    }
  }
  return out;
}

const std::vector<double>& paper_bandwidths() {
  static const std::vector<double> v = {100e6, 500e6, 1e9, 10e9, 25e9};
  return v;
}

const std::vector<double>& paper_buffer_bdps() {
  static const std::vector<double> v = {0.5, 1, 2, 4, 8, 16};
  return v;
}

const std::vector<aqm::AqmKind>& paper_aqms() {
  static const std::vector<aqm::AqmKind> v = {aqm::AqmKind::kFifo, aqm::AqmKind::kFqCodel,
                                              aqm::AqmKind::kRed};
  return v;
}

const std::vector<std::pair<cca::CcaKind, cca::CcaKind>>& paper_cca_pairs() {
  using K = cca::CcaKind;
  static const std::vector<std::pair<K, K>> v = {
      {K::kBbrV1, K::kCubic}, {K::kBbrV2, K::kCubic}, {K::kHtcp, K::kCubic},
      {K::kReno, K::kCubic},  {K::kCubic, K::kCubic}, {K::kBbrV1, K::kBbrV1},
      {K::kBbrV2, K::kBbrV2}, {K::kHtcp, K::kHtcp},   {K::kReno, K::kReno},
  };
  return v;
}

}  // namespace elephant::exp
