#include "exp/cache.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/json.hpp"

namespace elephant::exp {

namespace {

/// FNV-1a 64-bit over the entry body. Not cryptographic — it guards against
/// torn writes, disk bit rot, and concurrent-writer interleaving, all of
/// which it catches with overwhelming probability.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Strict double parse: the whole field must be one number (modulo
/// trailing whitespace / CR from foreign line endings) and the value
/// finite. std::atof would silently turn a mangled row into 0.0.
bool parse_field(std::string_view text, double* out) {
  const std::size_t last = text.find_last_not_of(" \t\r");
  double v = 0;
  if (last == std::string_view::npos ||
      !obs::json::scan_number(text.substr(0, last + 1), &v) || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

ResultCache::ResultCache(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) enabled_ = false;
}

ResultCache& ResultCache::global() {
  static ResultCache cache = [] {
    const char* env = std::getenv("ELEPHANT_RESULTS_DIR");
    return ResultCache(env != nullptr ? std::filesystem::path(env)
                                      : std::filesystem::path("results"));
  }();
  return cache;
}

std::filesystem::path ResultCache::path_for(const ExperimentConfig& cfg) const {
  return dir_ / (cfg.id() + ".result");
}

std::optional<ExperimentResult> ResultCache::load(const ExperimentConfig& cfg) const {
  auto res = load_impl(cfg);
  (res ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return res;
}

void ResultCache::quarantine(const std::filesystem::path& path) const {
  std::error_code ec;
  std::filesystem::rename(path, path.string() + ".corrupt", ec);
  if (ec) std::filesystem::remove(path, ec);
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "[cache] corrupt entry quarantined: %s\n", path.c_str());
}

std::optional<ExperimentResult> ResultCache::load_impl(const ExperimentConfig& cfg) const {
  if (!enabled_) return std::nullopt;
  std::lock_guard lock(mu_);
  const auto path = path_for(cfg);
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    content.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  // Verify the trailing checksum when present (entries from before the sum
  // line are accepted as-is — their field-level validation still applies).
  const auto sum_pos = content.rfind("sum=");
  if (sum_pos != std::string::npos && (sum_pos == 0 || content[sum_pos - 1] == '\n')) {
    const std::string_view body(content);
    const std::size_t eol = body.find('\n', sum_pos);
    const std::string_view hex =
        body.substr(sum_pos + 4, eol == std::string_view::npos ? eol : eol - sum_pos - 4);
    std::uint64_t recorded = 0;
    if (!obs::json::scan_number(hex, &recorded, 16) ||
        recorded != fnv1a(body.substr(0, sum_pos))) {
      quarantine(path);
      return std::nullopt;
    }
    content.erase(sum_pos);  // body only from here on
  }

  std::unordered_map<std::string, std::string> kv;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  // A present-but-unparseable field (garbage, NaN, Inf) marks the whole
  // entry corrupt; a *missing* optional field is just an older format.
  bool corrupt = false;
  auto get = [&](const char* key) -> std::optional<double> {
    auto it = kv.find(key);
    if (it == kv.end()) return std::nullopt;
    double v;
    if (!parse_field(it->second, &v)) {
      corrupt = true;
      return std::nullopt;
    }
    return v;
  };

  ExperimentResult res;
  res.config = cfg;
  const auto s1 = get("sender1_bps");
  const auto s2 = get("sender2_bps");
  const auto jain = get("jain2");
  const auto util = get("utilization");
  const auto retx = get("retx_segments");
  const auto rtos = get("rtos");
  const auto n_flows = get("n_flows");
  const auto events = get("events");
  const auto wall = get("wall_seconds");
  if (corrupt || !s1 || !s2 || !jain || !util || !retx) {
    // Truncated or mangled entry: serving it would turn garbage (atof's
    // silent 0.0) into a "valid" cached result. Quarantine so it regenerates
    // and the damaged bytes stay inspectable.
    quarantine(path);
    return std::nullopt;
  }
  res.sender_bps[0] = *s1;
  res.sender_bps[1] = *s2;
  res.jain2 = *jain;
  res.utilization = *util;
  res.retx_segments = static_cast<std::uint64_t>(*retx);
  res.rtos = static_cast<std::uint64_t>(rtos.value_or(0));
  res.n_flows = static_cast<std::uint32_t>(n_flows.value_or(0));
  res.events_executed = static_cast<std::uint64_t>(events.value_or(0));
  res.wall_seconds = wall.value_or(0);

  // Per-class aggregates (workload runs): "classN=name;f1;...;f12". A
  // workload config whose entry predates the class rows must regenerate —
  // serving it would silently drop the mice metrics.
  for (std::size_t ci = 0;; ++ci) {
    auto it = kv.find("class" + std::to_string(ci));
    if (it == kv.end()) break;
    std::vector<std::string> fields;
    std::stringstream ss(it->second);
    std::string field;
    while (std::getline(ss, field, ';')) fields.push_back(field);
    double v[12];
    bool ok = fields.size() == 13;
    for (std::size_t i = 0; ok && i < 12; ++i) ok = parse_field(fields[i + 1], &v[i]);
    if (!ok) {
      quarantine(path);
      return std::nullopt;
    }
    ClassResult cr;
    cr.name = fields[0];
    cr.flows = static_cast<std::uint32_t>(v[0]);
    cr.completed = static_cast<std::uint32_t>(v[1]);
    cr.throughput_bps = v[2];
    cr.share = v[3];
    cr.jain = v[4];
    cr.fct_p50_s = v[5];
    cr.fct_p95_s = v[6];
    cr.fct_p99_s = v[7];
    cr.fct_mean_s = v[8];
    cr.slowdown_p50 = v[9];
    cr.slowdown_p95 = v[10];
    cr.slowdown_p99 = v[11];
    res.classes.push_back(std::move(cr));
  }
  if (!cfg.workload.is_paper_default() &&
      res.classes.size() != cfg.workload.classes.size()) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return std::nullopt;
  }

  // Fairness episodes: "epN=cause;15 numeric fields". No format-migration
  // check is needed: the episode knobs are part of the config id, so an
  // episode-enabled config can never resolve to an entry written without
  // them — an entry with no ep rows genuinely had zero episodes.
  for (std::size_t ei = 0;; ++ei) {
    auto it = kv.find("ep" + std::to_string(ei));
    if (it == kv.end()) break;
    std::vector<std::string> fields;
    std::stringstream ss(it->second);
    std::string field;
    while (std::getline(ss, field, ';')) fields.push_back(field);
    double v[15];
    bool ok = fields.size() == 16;
    for (std::size_t i = 0; ok && i < 15; ++i) ok = parse_field(fields[i + 1], &v[i]);
    if (!ok) {
      quarantine(path);
      return std::nullopt;
    }
    obs::Episode ep;
    ep.cause = fields[0];
    ep.start_s = v[0];
    ep.end_s = v[1];
    ep.worst_jain = v[2];
    ep.worst_t_s = v[3];
    ep.victim_flow = static_cast<std::uint32_t>(v[4]);
    ep.victim_side = static_cast<int>(v[5]);
    ep.victim_share = v[6];
    ep.loss_injected = static_cast<std::uint64_t>(v[7]);
    ep.drops_overflow = static_cast<std::uint64_t>(v[8]);
    ep.drops_early = static_cast<std::uint64_t>(v[9]);
    ep.ecn_marks = static_cast<std::uint64_t>(v[10]);
    ep.rtos = static_cast<std::uint64_t>(v[11]);
    ep.retx = static_cast<std::uint64_t>(v[12]);
    ep.faults = static_cast<std::uint64_t>(v[13]);
    ep.cwnd_collapses = static_cast<std::uint32_t>(v[14]);
    res.episodes.push_back(std::move(ep));
  }
  return res;
}

void ResultCache::store(const ExperimentResult& result) {
  if (!enabled_) return;
  std::lock_guard lock(mu_);
  const auto path = path_for(result.config);
  // Unique per-(process, store) tmp name: concurrent sweep workers caching
  // the same cell must never interleave writes into one shared tmp file.
  // Each writes its own tmp, and the rename-over races are benign — results
  // are deterministic, so last-writer-wins installs identical bytes.
  const auto tmp = path.string() + ".tmp." + std::to_string(::getpid()) + "." +
                   std::to_string(tmp_seq_.fetch_add(1, std::memory_order_relaxed));

  std::ostringstream body;
  body.precision(17);
  body << "id=" << result.config.id() << '\n'
       << "label=" << result.config.label() << '\n'
       << "sender1_bps=" << result.sender_bps[0] << '\n'
       << "sender2_bps=" << result.sender_bps[1] << '\n'
       << "jain2=" << result.jain2 << '\n'
       << "utilization=" << result.utilization << '\n'
       << "retx_segments=" << result.retx_segments << '\n'
       << "rtos=" << result.rtos << '\n'
       << "n_flows=" << result.n_flows << '\n'
       << "events=" << result.events_executed << '\n'
       << "wall_seconds=" << result.wall_seconds << '\n';
  for (std::size_t ci = 0; ci < result.classes.size(); ++ci) {
    const ClassResult& c = result.classes[ci];
    body << "class" << ci << '=' << c.name << ';' << c.flows << ';' << c.completed << ';'
         << c.throughput_bps << ';' << c.share << ';' << c.jain << ';' << c.fct_p50_s
         << ';' << c.fct_p95_s << ';' << c.fct_p99_s << ';' << c.fct_mean_s << ';'
         << c.slowdown_p50 << ';' << c.slowdown_p95 << ';' << c.slowdown_p99 << '\n';
  }
  for (std::size_t ei = 0; ei < result.episodes.size(); ++ei) {
    const obs::Episode& ep = result.episodes[ei];
    body << "ep" << ei << '=' << ep.cause << ';' << ep.start_s << ';' << ep.end_s << ';'
         << ep.worst_jain << ';' << ep.worst_t_s << ';' << ep.victim_flow << ';'
         << ep.victim_side << ';' << ep.victim_share << ';' << ep.loss_injected << ';'
         << ep.drops_overflow << ';' << ep.drops_early << ';' << ep.ecn_marks << ';'
         << ep.rtos << ';' << ep.retx << ';' << ep.faults << ';' << ep.cwnd_collapses
         << '\n';
  }
  const std::string text = body.str();
  char sum[32];
  std::snprintf(sum, sizeof(sum), "sum=%016llx\n",
                static_cast<unsigned long long>(fnv1a(text)));

  bool written = false;
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (out) {
      out << text << sum;
      out.flush();
      written = out.good();
    }
  }
  std::error_code ec;
  if (!written) {
    store_failures_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "[cache] store failed (write error): %s\n", tmp.c_str());
    std::filesystem::remove(tmp, ec);
    return;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    // A failed rename means the result was NOT cached — saying nothing here
    // would turn every future hit into a silent re-simulation.
    store_failures_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "[cache] store failed (rename: %s): %s\n",
                 ec.message().c_str(), path.c_str());
    std::filesystem::remove(tmp, ec);
  }
}

}  // namespace elephant::exp
