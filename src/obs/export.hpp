#pragma once

#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace elephant::obs {

/// Append one JSON object (no trailing newline) with the registry contents:
///   {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
///    "sum":..,"min":..,"max":..,"mean":..,"p50":..,"p95":..,"p99":..}}}
/// With include_histograms=false the histograms key is omitted — the
/// heartbeat uses this for live ticks against a registry whose histograms a
/// running simulation is still writing lock-free. Takes the registry mutex.
void append_json(const MetricsRegistry& reg, std::string* out,
                 bool include_histograms = true);

}  // namespace elephant::obs
