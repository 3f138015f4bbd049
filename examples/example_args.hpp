#pragma once

// Strict positional arguments for the examples: a number must be all number
// (obs::json::scan_number) and in range, and a CCA or AQM name must be one
// the factories know. Anything else prints a message and exits 2.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "aqm/factory.hpp"
#include "cca/congestion_control.hpp"
#include "obs/json.hpp"

namespace elephant::examples {

/// `text` (the argument called `what`) as a finite number > 0.
inline double positive_arg(const char* what, const char* text) {
  double v = 0;
  if (!obs::json::scan_number(std::string_view(text), &v) || !std::isfinite(v) || v <= 0) {
    std::fprintf(stderr, "%s '%s' is not a finite number > 0\n", what, text);
    std::exit(2);
  }
  return v;
}

/// `text` as a seed: a decimal integer in [0, 2^64).
inline std::uint64_t seed_arg(const char* text) {
  std::uint64_t v = 0;
  if (!obs::json::scan_number(std::string_view(text), &v)) {
    std::fprintf(stderr, "seed '%s' is not a non-negative integer\n", text);
    std::exit(2);
  }
  return v;
}

/// Run `parse(text)`, turning an unknown kind name into exit 2.
template <typename Parse>
auto kind_arg(Parse parse, const char* text) {
  try {
    return parse(text);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

inline cca::CcaKind cca_arg(const char* text) {
  return kind_arg(cca::cca_kind_from_string, text);
}

inline aqm::AqmKind aqm_arg(const char* text) {
  return kind_arg(aqm::aqm_kind_from_string, text);
}

}  // namespace elephant::examples
