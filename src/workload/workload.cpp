#include "workload/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace elephant::workload {

const char* to_string(ClassKind kind) {
  switch (kind) {
    case ClassKind::kElephant: return "elephant";
    case ClassKind::kFinite: return "finite";
  }
  return "?";
}

const char* to_string(SizeDist dist) {
  switch (dist) {
    case SizeDist::kFixed: return "fixed";
    case SizeDist::kPareto: return "pareto";
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

std::string SizeSpec::signature() const {
  char buf[96];
  switch (dist) {
    case SizeDist::kFixed:
      std::snprintf(buf, sizeof(buf), "fix%g", mean_bytes);
      break;
    case SizeDist::kPareto:
      std::snprintf(buf, sizeof(buf), "par%g,%g", mean_bytes, shape);
      break;
  }
  return buf;
}

std::string TrafficClass::signature() const {
  char buf[160];
  std::string cca_s = cca_from_pair ? "pair" : cca::to_string(cca);
  // "stagger" and "r0" are the arrival process and Poisson rate of older
  // builds, kept as literals so run ids (and journaled results) never move.
  std::snprintf(buf, sizeof(buf), "%s:%s,%s,n%u,sd%d,stagger,o%g,w%g,r0", name.c_str(),
                to_string(kind), cca_s.c_str(), count, side, start_offset.sec(),
                start_window.sec());
  std::string out = buf;
  if (kind != ClassKind::kElephant) out += "," + size.signature();
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
  // Let the elephants grab the link first, then spread the mice out so most
  // observe steady-state elephant occupancy (and all finish inside the run).
  mice.start_offset = sim::Time::seconds(2);
  mice.start_window = sim::Time::seconds(20);
  mice.size = SizeSpec::pareto(/*mean_bytes=*/500e3, /*shape=*/1.5);
  spec.classes.push_back(mice);
  return spec;
}

bool WorkloadSpec::from_name(const std::string& name, WorkloadSpec* out) {
  if (name == "paper") {
    *out = paper();
  } else if (name == "mice-elephants") {
    *out = mice_elephants();
  } else {
    return false;
  }
  return true;
}

const std::vector<std::string>& WorkloadSpec::preset_names() {
  static const std::vector<std::string> names = {"paper", "mice-elephants"};
  return names;
}

}  // namespace elephant::workload
