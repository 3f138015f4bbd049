#include "exp/manifest.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>

#include "obs/json.hpp"

namespace elephant::exp {

using obs::json::Value;

SweepManifest::SweepManifest(std::filesystem::path path) : path_(std::move(path)) {
  std::error_code ec;
  if (path_.has_parent_path()) std::filesystem::create_directories(path_.parent_path(), ec);
  // Raw O_APPEND fd instead of an ofstream: every append is one write(2)
  // whose return value we can check (an ofstream swallows short writes into
  // badbit long after the fact), and the fd doubles as the flock handle that
  // serializes appends across worker processes.
  // O_RDWR, not O_WRONLY: the work queue folds journal lines back through
  // this fd (pread), and tail repair peeks at the last byte before appending.
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) fail(std::string("open failed: ") + std::strerror(errno));
}

SweepManifest::~SweepManifest() {
  if (fd_ >= 0) ::close(fd_);
}

SweepManifest::ScopedLock::ScopedLock(SweepManifest& m) : m_(m) {
  m_.mu_.lock();
  if (m_.fd_ >= 0) {
    while (::flock(m_.fd_, LOCK_EX) != 0 && errno == EINTR) {
    }
  }
}

SweepManifest::ScopedLock::~ScopedLock() {
  if (m_.fd_ >= 0) ::flock(m_.fd_, LOCK_UN);
  m_.mu_.unlock();
}

void SweepManifest::fail(const std::string& what) {
  if (!failed_) error_ = what;  // keep the first failure; later ones are noise
  failed_ = true;
}

bool SweepManifest::ok() const {
  std::lock_guard lock(mu_);
  return fd_ >= 0 && !failed_;
}

std::string SweepManifest::last_error() const {
  std::lock_guard lock(mu_);
  return error_;
}

namespace {

/// write(2) the whole buffer, retrying short writes and EINTR.
bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

bool SweepManifest::append_locked(const ManifestEntry& e) {
  if (fd_ < 0) {
    fail("manifest not open");
    return false;
  }
  // Tail repair: a writer SIGKILLed mid-write leaves a partial line with no
  // newline. Appending after it would merge our line into the fragment and
  // parse_line could then stitch fields from both — terminate the fragment
  // first so it becomes one clean, unparseable (skipped) line of its own.
  struct stat st;
  if (::fstat(fd_, &st) == 0 && st.st_size > 0) {
    char last = '\n';
    if (::pread(fd_, &last, 1, st.st_size - 1) == 1 && last != '\n') {
      if (!write_all(fd_, "\n", 1)) {
        fail(std::string("tail repair write failed: ") + std::strerror(errno));
        return false;
      }
    }
  }
  std::string line = format_line(e);
  line += '\n';
  if (!write_all(fd_, line.data(), line.size())) {
    fail(std::string("append failed: ") + std::strerror(errno));
    return false;
  }
  // fsync per line: the lease protocol's correctness leans on "a journaled
  // completion survives the writer's death". One fsync per cell (seconds of
  // simulation) is noise.
  if (::fsync(fd_) != 0) {
    fail(std::string("fsync failed: ") + std::strerror(errno));
    return false;
  }
  return true;
}

std::string SweepManifest::format_line(const ManifestEntry& e) {
  std::string line = "{\"i\":";
  line += std::to_string(e.index);
  line += ",\"id\":\"";
  obs::append_json_escaped(e.id, &line);
  line += "\",\"status\":\"";
  line += to_string(e.status);
  const AveragedResult& r = e.result;
  obs::appendf(&line,
               "\",\"attempts\":%d,\"reps\":%d,\"s1_bps\":%.17g,\"s2_bps\":%.17g,"
               "\"jain2\":%.17g,\"util\":%.17g,\"retx\":%.17g,\"rtos\":%.17g",
               e.attempts, r.repetitions, r.sender_bps[0], r.sender_bps[1], r.jain2,
               r.utilization, r.retx_segments, r.rtos);
  if (e.status == RunStatus::kClaimed) {
    // Lease fields ride only on claim lines so every completion line stays
    // byte-identical to the pre-lease journal format.
    line += ",\"worker\":\"";
    obs::append_json_escaped(e.worker, &line);
    obs::appendf(&line, "\",\"lease_until\":%.3f", e.lease_until_unix_s);
  }
  if (!r.classes.empty()) {
    // Per-class block only for workload cells, so elephant-only journal
    // lines stay byte-identical to the pre-workload format.
    line += ",\"classes\":[";
    for (std::size_t i = 0; i < r.classes.size(); ++i) {
      const ClassResult& c = r.classes[i];
      if (i != 0) line += ',';
      line += "{\"name\":\"";
      obs::append_json_escaped(c.name, &line);
      obs::appendf(&line,
                   "\",\"flows\":%u,\"done\":%u,\"bps\":%.17g,\"share\":%.17g,"
                   "\"cjain\":%.17g,\"fct_p50\":%.17g,\"fct_p95\":%.17g,"
                   "\"fct_p99\":%.17g,\"fct_mean\":%.17g,\"sd_p50\":%.17g,"
                   "\"sd_p95\":%.17g,\"sd_p99\":%.17g}",
                   c.flows, c.completed, c.throughput_bps, c.share, c.jain, c.fct_p50_s,
                   c.fct_p95_s, c.fct_p99_s, c.fct_mean_s, c.slowdown_p50, c.slowdown_p95,
                   c.slowdown_p99);
    }
    line += ']';
  }
  // Both blocks below are conditional so lines from builds (or cells)
  // without them stay byte-identical to the earlier journal format.
  if (e.wall_s > 0) obs::appendf(&line, ",\"wall_s\":%.17g", e.wall_s);
  if (r.episodes > 0) {
    obs::appendf(&line,
                 ",\"episodes\":{\"count\":%.17g,\"worst_jain\":%.17g,"
                 "\"worst_t\":%.17g,\"victim\":%u,\"cause\":\"",
                 r.episodes, r.episode_worst_jain, r.episode_worst_t_s, r.episode_victim);
    obs::append_json_escaped(r.episode_cause, &line);
    line += "\"}";
  }
  line += ",\"error\":\"";
  obs::append_json_escaped(e.error, &line);
  line += "\"}";
  return line;
}

namespace {

/// A finite number under `key`: the manifest never journals inf or nan.
/// `*out` is left alone on failure, so optional fields keep their default.
bool finite_at(const Value& obj, std::string_view key, double* out) {
  double v;
  if (!obj.number_at(key, &v) || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// One element of the optional `"classes"` array.
bool parse_class(const Value& obj, ClassResult* c) {
  return obj.string_at("name", &c->name) && obj.number_at("flows", &c->flows) &&
         obj.number_at("done", &c->completed) &&
         finite_at(obj, "bps", &c->throughput_bps) && finite_at(obj, "share", &c->share) &&
         finite_at(obj, "cjain", &c->jain) && finite_at(obj, "fct_p50", &c->fct_p50_s) &&
         finite_at(obj, "fct_p95", &c->fct_p95_s) && finite_at(obj, "fct_p99", &c->fct_p99_s) &&
         finite_at(obj, "fct_mean", &c->fct_mean_s) &&
         finite_at(obj, "sd_p50", &c->slowdown_p50) &&
         finite_at(obj, "sd_p95", &c->slowdown_p95) &&
         finite_at(obj, "sd_p99", &c->slowdown_p99);
}

}  // namespace

bool SweepManifest::parse_line(const std::string& line, ManifestEntry* out) {
  // The strict reader rejects a torn line whole, so every optional block
  // below is either complete or absent.
  const std::optional<Value> doc = obs::json::parse(line);
  if (!doc || !doc->is(Value::Kind::kObject)) return false;
  ManifestEntry e;
  std::string status;
  if (!doc->string_at("id", &e.id) || e.id.empty()) return false;
  if (!doc->string_at("status", &status) || !run_status_from_string(status, &e.status)) {
    return false;
  }
  AveragedResult& r = e.result;
  if (!doc->number_at("i", &e.index) || !doc->number_at("attempts", &e.attempts) ||
      !doc->number_at("reps", &r.repetitions) || !finite_at(*doc, "s1_bps", &r.sender_bps[0]) ||
      !finite_at(*doc, "s2_bps", &r.sender_bps[1]) || !finite_at(*doc, "jain2", &r.jain2) ||
      !finite_at(*doc, "util", &r.utilization) || !finite_at(*doc, "retx", &r.retx_segments) ||
      !finite_at(*doc, "rtos", &r.rtos)) {
    return false;
  }
  if (e.status == RunStatus::kClaimed) {
    // A claim without its lease fields is a torn line, not an old format:
    // claims and the fields were introduced together.
    if (!doc->string_at("worker", &e.worker) ||
        !finite_at(*doc, "lease_until", &e.lease_until_unix_s)) {
      return false;
    }
  }
  if (const Value* classes = doc->find("classes")) {
    if (!classes->is(Value::Kind::kArray)) return false;
    for (const Value& obj : classes->array) {
      if (!parse_class(obj, &r.classes.emplace_back())) return false;
    }
  }
  (void)finite_at(*doc, "wall_s", &e.wall_s);  // optional
  if (const Value* ep = doc->find("episodes")) {
    if (!finite_at(*ep, "count", &r.episodes) ||
        !finite_at(*ep, "worst_jain", &r.episode_worst_jain) ||
        !finite_at(*ep, "worst_t", &r.episode_worst_t_s) ||
        !ep->number_at("victim", &r.episode_victim) ||
        !ep->string_at("cause", &r.episode_cause)) {
      return false;
    }
  }
  (void)doc->string_at("error", &e.error);  // optional
  *out = std::move(e);
  return true;
}

}  // namespace elephant::exp
