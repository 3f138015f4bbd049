#include "obs/metrics.hpp"

namespace elephant::obs {

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  return gauges_.try_emplace(std::string(name)).first->second;
}

LogLinHistogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  return histograms_.try_emplace(std::string(name)).first->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  // The source is quiescent (contract), so only this registry needs locking.
  std::scoped_lock lock(mu_);
  for (const auto& [name, c] : other.counters_) {
    counters_.try_emplace(name).first->second.add(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauges_.try_emplace(name).first->second.set(g.value());
  }
  for (const auto& [name, h] : other.histograms_) {
    histograms_.try_emplace(name).first->second.merge(h);
  }
}

}  // namespace elephant::obs
