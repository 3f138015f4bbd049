#include "workload/workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/snapshot.hpp"

namespace elephant::workload {

const char* to_string(ClassKind kind) {
  switch (kind) {
    case ClassKind::kElephant: return "elephant";
    case ClassKind::kFinite: return "finite";
    case ClassKind::kOnOff: return "onoff";
  }
  return "?";
}

const char* to_string(Arrival arrival) {
  switch (arrival) {
    case Arrival::kStagger: return "stagger";
    case Arrival::kPoisson: return "poisson";
  }
  return "?";
}

const char* to_string(SizeDist dist) {
  switch (dist) {
    case SizeDist::kFixed: return "fixed";
    case SizeDist::kPareto: return "pareto";
    case SizeDist::kLognormal: return "lognormal";
    case SizeDist::kEmpirical: return "empirical";
  }
  return "?";
}

std::uint64_t SizeSpec::sample(sim::Rng& rng) const {
  double bytes = mean_bytes;
  switch (dist) {
    case SizeDist::kFixed:
      break;
    case SizeDist::kPareto: {
      // Mean of Pareto(x_min, α) is x_min·α/(α−1); invert for x_min so the
      // configured mean holds. 1−u ∈ (0, 1] keeps the pow() finite.
      const double alpha = std::max(shape, 1.0 + 1e-9);
      const double x_min = mean_bytes * (alpha - 1.0) / alpha;
      const double u = rng.next_double();
      bytes = x_min / std::pow(1.0 - u, 1.0 / alpha);
      break;
    }
    case SizeDist::kLognormal: {
      // μ chosen so E[X] = mean_bytes. Box–Muller; u1 nudged away from 0.
      const double mu = std::log(std::max(mean_bytes, 1.0)) - 0.5 * sigma * sigma;
      double u1 = rng.next_double();
      const double u2 = rng.next_double();
      if (u1 <= 0.0) u1 = 0x1.0p-53;
      const double z =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.14159265358979323846 * u2);
      bytes = std::exp(mu + sigma * z);
      break;
    }
    case SizeDist::kEmpirical: {
      if (cdf.empty()) break;
      const double u = rng.next_double();
      // First point with cumulative probability ≥ u; interpolate linearly
      // from the previous point (or from probability 0 at the first size).
      std::size_t i = 0;
      while (i < cdf.size() && cdf[i].first < u) ++i;
      if (i >= cdf.size()) {
        bytes = cdf.back().second;
        break;
      }
      const double p1 = cdf[i].first;
      const double b1 = cdf[i].second;
      const double p0 = i == 0 ? 0.0 : cdf[i - 1].first;
      const double b0 = i == 0 ? b1 : cdf[i - 1].second;
      bytes = p1 > p0 ? b0 + (b1 - b0) * (u - p0) / (p1 - p0) : b1;
      break;
    }
  }
  if (!(bytes >= 1.0)) bytes = 1.0;
  return static_cast<std::uint64_t>(std::llround(bytes));
}

SizeSpec SizeSpec::fixed(double bytes) {
  SizeSpec s;
  s.dist = SizeDist::kFixed;
  s.mean_bytes = bytes;
  return s;
}

SizeSpec SizeSpec::pareto(double mean_bytes, double shape) {
  SizeSpec s;
  s.dist = SizeDist::kPareto;
  s.mean_bytes = mean_bytes;
  s.shape = shape;
  return s;
}

SizeSpec SizeSpec::lognormal(double mean_bytes, double sigma) {
  SizeSpec s;
  s.dist = SizeDist::kLognormal;
  s.mean_bytes = mean_bytes;
  s.sigma = sigma;
  return s;
}

SizeSpec SizeSpec::empirical(std::vector<std::pair<double, double>> points) {
  SizeSpec s;
  s.dist = SizeDist::kEmpirical;
  s.cdf = std::move(points);
  // Mean of the piecewise-linear inverse CDF (trapezoid per segment), so
  // empirical specs report a comparable intensity.
  double mean = 0;
  double prev_p = 0;
  double prev_b = s.cdf.empty() ? 0 : s.cdf.front().second;
  for (const auto& [p, b] : s.cdf) {
    mean += (p - prev_p) * 0.5 * (b + prev_b);
    prev_p = p;
    prev_b = b;
  }
  s.mean_bytes = mean;
  return s;
}

bool SizeSpec::load_cdf_file(const std::string& path, SizeSpec* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::vector<std::pair<double, double>> points;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    double bytes = 0;
    double prob = 0;
    if (!(ls >> bytes)) continue;  // blank / comment-only line
    if (!(ls >> prob) || !(bytes >= 0) || !(prob >= 0.0) || !(prob <= 1.0)) {
      if (error) *error = path + ":" + std::to_string(lineno) + ": expected '<bytes> <cum_prob in [0,1]>'";
      return false;
    }
    if (!points.empty() && (prob < points.back().first || bytes < points.back().second)) {
      if (error) *error = path + ":" + std::to_string(lineno) + ": CDF points must be nondecreasing";
      return false;
    }
    points.emplace_back(prob, bytes);
  }
  if (points.empty()) {
    if (error) *error = path + ": no CDF points";
    return false;
  }
  if (points.back().first < 1.0) points.back().first = 1.0;  // close the tail
  *out = empirical(std::move(points));
  return true;
}

std::string SizeSpec::signature() const {
  char buf[96];
  switch (dist) {
    case SizeDist::kFixed:
      std::snprintf(buf, sizeof(buf), "fix%g", mean_bytes);
      break;
    case SizeDist::kPareto:
      std::snprintf(buf, sizeof(buf), "par%g,%g", mean_bytes, shape);
      break;
    case SizeDist::kLognormal:
      std::snprintf(buf, sizeof(buf), "log%g,%g", mean_bytes, sigma);
      break;
    case SizeDist::kEmpirical: {
      // FNV-1a over the point table: two empirical specs collide only if the
      // tables are identical.
      std::uint64_t h = sim::kFnvOffset;
      for (const auto& [p, b] : cdf) {
        h = sim::fnv1a_fold(h, std::bit_cast<std::uint64_t>(p));
        h = sim::fnv1a_fold(h, std::bit_cast<std::uint64_t>(b));
      }
      std::snprintf(buf, sizeof(buf), "emp%zu:%016llx", cdf.size(),
                    static_cast<unsigned long long>(h));
      break;
    }
  }
  return buf;
}

std::string TrafficClass::signature() const {
  char buf[160];
  std::string cca_s = cca_from_pair ? "pair" : cca::to_string(cca);
  std::snprintf(buf, sizeof(buf), "%s:%s,%s,n%u,sd%d,%s,o%g,w%g,r%g", name.c_str(),
                to_string(kind), cca_s.c_str(), count, side, to_string(arrival),
                start_offset.sec(), start_window.sec(), arrival_rate_hz);
  std::string out = buf;
  if (kind != ClassKind::kElephant) out += "," + size.signature();
  if (kind == ClassKind::kOnOff) {
    std::snprintf(buf, sizeof(buf), ",off%g", off_mean.sec());
    out += buf;
  }
  return out;
}

std::string WorkloadSpec::signature() const {
  std::string out;
  for (const TrafficClass& c : classes) {
    if (!out.empty()) out += '+';
    out += c.signature();
  }
  return out;
}

WorkloadSpec WorkloadSpec::paper() { return WorkloadSpec{}; }

WorkloadSpec WorkloadSpec::mice_elephants() {
  WorkloadSpec spec;
  TrafficClass elephants;
  elephants.name = "elephants";
  elephants.kind = ClassKind::kElephant;
  elephants.cca_from_pair = true;
  elephants.count = 0;  // cell's paper flow count
  spec.classes.push_back(elephants);

  TrafficClass mice;
  mice.name = "mice";
  mice.kind = ClassKind::kFinite;
  mice.cca = cca::CcaKind::kCubic;  // web/short traffic is overwhelmingly CUBIC
  mice.count = 40;
  mice.arrival = Arrival::kStagger;
  // Let the elephants grab the link first, then spread the mice out so most
  // observe steady-state elephant occupancy (and all finish inside the run).
  mice.start_offset = sim::Time::seconds(2);
  mice.start_window = sim::Time::seconds(20);
  mice.size = SizeSpec::pareto(/*mean_bytes=*/500e3, /*shape=*/1.5);
  spec.classes.push_back(mice);
  return spec;
}

WorkloadSpec WorkloadSpec::poisson_web() {
  WorkloadSpec spec;
  TrafficClass elephants;
  elephants.name = "elephants";
  elephants.kind = ClassKind::kElephant;
  elephants.cca_from_pair = true;
  spec.classes.push_back(elephants);

  TrafficClass web;
  web.name = "web";
  web.kind = ClassKind::kFinite;
  web.cca = cca::CcaKind::kCubic;
  web.arrival = Arrival::kPoisson;
  web.arrival_rate_hz = 4.0;
  web.start_offset = sim::Time::seconds(2);
  web.count = 0;  // uncapped: rate × remaining duration arrivals
  web.size = SizeSpec::lognormal(/*mean_bytes=*/200e3, /*sigma=*/1.2);
  spec.classes.push_back(web);
  return spec;
}

WorkloadSpec WorkloadSpec::onoff_bursts() {
  WorkloadSpec spec;
  TrafficClass elephants;
  elephants.name = "elephants";
  elephants.kind = ClassKind::kElephant;
  elephants.cca_from_pair = true;
  spec.classes.push_back(elephants);

  TrafficClass onoff;
  onoff.name = "onoff";
  onoff.kind = ClassKind::kOnOff;
  onoff.cca = cca::CcaKind::kCubic;
  onoff.count = 8;
  onoff.arrival = Arrival::kStagger;
  onoff.start_offset = sim::Time::seconds(1);
  onoff.start_window = sim::Time::seconds(2);
  onoff.size = SizeSpec::fixed(2e6);  // 2 MB bursts (streaming-chunk sized)
  onoff.off_mean = sim::Time::seconds(1);
  spec.classes.push_back(onoff);
  return spec;
}

bool WorkloadSpec::from_name(const std::string& name, WorkloadSpec* out) {
  if (name == "paper") {
    *out = paper();
  } else if (name == "mice-elephants") {
    *out = mice_elephants();
  } else if (name == "poisson-web") {
    *out = poisson_web();
  } else if (name == "onoff") {
    *out = onoff_bursts();
  } else {
    return false;
  }
  return true;
}

const std::vector<std::string>& WorkloadSpec::preset_names() {
  static const std::vector<std::string> names = {"paper", "mice-elephants", "poisson-web",
                                                 "onoff"};
  return names;
}

}  // namespace elephant::workload
