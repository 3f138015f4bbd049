#include "obs/heartbeat.hpp"

#include <fstream>

#include "obs/export.hpp"

namespace elephant::obs {

Heartbeat::Heartbeat(const MetricsRegistry& reg, Options options, StatusFn status)
    : reg_(reg), options_(std::move(options)), status_(std::move(status)) {
  // Guard the tick period: a zero/negative interval would either busy-spin
  // the emitter thread or (with the old silent fallback) quietly ignore what
  // the caller asked for. Clamp and say so once.
  effective_interval_s_ = options_.interval_s;
  if (!(effective_interval_s_ > 0)) {  // catches NaN too
    effective_interval_s_ = kFallbackIntervalS;
  } else if (effective_interval_s_ < kMinIntervalS) {
    effective_interval_s_ = kMinIntervalS;
  }
  if (effective_interval_s_ != options_.interval_s) {
    std::FILE* warn = options_.console != nullptr ? options_.console : stderr;
    std::fprintf(warn,
                 "[heartbeat] warning: interval %g s is out of range, using %g s\n",
                 options_.interval_s, effective_interval_s_);
    std::fflush(warn);
  }
}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::start() {
  std::lock_guard lock(mu_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  started_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { run(); });
}

void Heartbeat::stop() {
  {
    std::lock_guard lock(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  emit(/*final_snapshot=*/true);
  std::lock_guard lock(mu_);
  running_ = false;
}

void Heartbeat::run() {
  std::unique_lock lock(mu_);
  const auto interval = std::chrono::duration<double>(effective_interval_s_);
  while (!cv_.wait_for(lock, interval, [this] { return stopping_; })) {
    lock.unlock();
    emit(/*final_snapshot=*/false);
    lock.lock();
  }
}

void Heartbeat::emit(bool final_snapshot) {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started_).count();
  std::string fields;
  std::string console_line;
  if (status_) status_(&fields, &console_line);

  if (!options_.jsonl_path.empty()) {
    std::string line = "{\"elapsed_s\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", elapsed);
    line += buf;
    line += ",\"final\":";
    line += final_snapshot ? "true" : "false";
    line += ',';
    line += fields;  // caller fields, each already comma-terminated
    // Splice the registry object's members into this line's object.
    std::string reg_json;
    append_json(reg_, &reg_json,
                /*include_histograms=*/final_snapshot || options_.histograms_in_ticks);
    line.append(reg_json, 1, reg_json.size() - 2);  // strip the outer { }
    line += "}\n";
    std::ofstream out(options_.jsonl_path, std::ios::app);
    if (out) out << line << std::flush;
  }

  if (options_.console != nullptr) {
    if (console_line.empty()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "[heartbeat] t=%.1fs tick=%llu", elapsed,
                    static_cast<unsigned long long>(ticks() + 1));
      console_line = buf;
    }
    std::fprintf(options_.console, "%s%s\n", final_snapshot ? "[final] " : "",
                 console_line.c_str());
    std::fflush(options_.console);
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace elephant::obs
