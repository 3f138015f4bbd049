// `elephant report`: merge the durable artifacts of one sweep — the manifest
// journal (claims + completions), the per-worker heartbeat journals, and the
// per-cell fairness-episode summaries — into a single forensics document.
//
// Attribution walks the manifest's full line history, not the latest-per-id
// view: a completion belongs to the worker whose claim preceded it, a claim
// on a cell another worker still holds is a lease steal, and re-journaled
// terminal lines (retries, takeovers) resolve to the latest one per id.

#include "exp/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "exp/manifest.hpp"
#include "exp/status.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace elephant::exp {

namespace {

constexpr const char* kLocalWorker = "local";

struct CellState {
  ManifestEntry latest;      ///< latest terminal line for the id
  bool has_terminal = false;
  std::string holder;        ///< worker of the live claim, "" when none
  std::string completed_by;  ///< worker attributed to `latest`
};

void append_quoted(const std::string& s, std::string* out) {
  *out += '"';
  obs::append_json_escaped(s, out);
  *out += '"';
}

ReportCellRow make_row(const CellState& st) {
  ReportCellRow row;
  row.id = st.latest.id;
  row.worker = st.completed_by;
  row.status = to_string(st.latest.status);
  row.wall_s = st.latest.wall_s;
  row.episodes = st.latest.result.episodes;
  row.worst_jain = st.latest.result.episode_worst_jain;
  row.victim = st.latest.result.episode_victim;
  row.cause = st.latest.result.episode_cause;
  return row;
}

}  // namespace

bool build_report(const ReportOptions& opt, SweepSummary* out, std::string* error) {
  *out = SweepSummary{};
  out->manifest = opt.manifest_path.string();

  std::ifstream in(opt.manifest_path);
  if (!in) {
    if (error != nullptr) *error = "cannot open manifest: " + opt.manifest_path.string();
    return false;
  }

  // Pass 1: manifest line history → per-cell attribution + claim/steal tally.
  std::map<std::string, CellState> cells;      // by id
  std::map<std::string, ReportWorker> workers; // by worker id
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(in, line)) {
    ManifestEntry e;
    if (!SweepManifest::parse_line(line, &e)) continue;  // torn line
    ++parsed;
    if (e.status == RunStatus::kClaimed) {
      ++out->claims;
      ReportWorker& w = workers[e.worker];
      w.id = e.worker;
      ++w.claims;
      CellState& st = cells[e.id];
      if (!st.holder.empty() && st.holder != e.worker) {
        ++out->steals;
        ++w.steals;
      }
      st.holder = e.worker;
    } else {
      CellState& st = cells[e.id];
      st.latest = std::move(e);
      st.has_terminal = true;
      st.completed_by = st.holder.empty() ? kLocalWorker : st.holder;
      st.holder.clear();  // the lease is spent
    }
  }
  if (parsed == 0) {
    if (error != nullptr) {
      *error = "no parseable journal line in " + opt.manifest_path.string();
    }
    return false;
  }

  // Aggregate the latest terminal outcome per cell.
  for (const auto& [id, st] : cells) {
    if (!st.has_terminal) continue;
    ++out->cells_total;
    if (st.latest.success()) {
      ++out->completed;
      ReportWorker& w = workers[st.completed_by];
      w.id = st.completed_by;
      ++w.cells;
      w.wall_s += st.latest.wall_s;
      out->wall_s_total += st.latest.wall_s;
    } else {
      ++out->failed;
    }
    if (st.latest.wall_s > 0) out->slowest.push_back(make_row(st));
    if (st.latest.result.episodes > 0) out->episode_cells.push_back(make_row(st));
  }

  // Pass 2: per-worker metrics journals, merged into one registry. Journal
  // merge is associative with in-process merge_from (obs_journal_test pins
  // it), so the folded histograms read as if one registry had seen the
  // whole sweep.
  std::vector<std::filesystem::path> journals = opt.metrics_paths;
  if (journals.empty()) {
    const std::filesystem::path dir = opt.manifest_path.has_parent_path()
                                          ? opt.manifest_path.parent_path()
                                          : std::filesystem::path(".");
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      const std::string name = it->path().filename().string();
      if (name.rfind("metrics", 0) == 0 && name.size() > 6 &&
          name.compare(name.size() - 6, 6, ".jsonl") == 0) {
        journals.push_back(it->path());
      }
    }
    std::sort(journals.begin(), journals.end());
  }
  obs::MetricsRegistry merged;
  for (const std::filesystem::path& p : journals) {
    obs::JournalSnapshot snap;
    std::string jerr;
    if (!obs::read_final_snapshot(p, &snap, &jerr)) continue;  // degrade
    obs::merge_into(snap, &merged);
    // Worker match: the snapshot's own tag, else derive from the
    // "metrics-<worker>.jsonl" filename, else the single-process journal.
    std::string wid = snap.worker;
    if (wid.empty()) {
      const std::string name = p.filename().string();
      if (name.rfind("metrics-", 0) == 0 && name.size() > 14) {
        wid = name.substr(8, name.size() - 14);
      } else {
        wid = kLocalWorker;
      }
    }
    ReportWorker& w = workers[wid];
    w.id = wid;
    w.elapsed_s = snap.elapsed_s;
  }
  {
    std::lock_guard lock(merged.mutex());
    merged.for_each_histogram([&](const std::string& name,
                                  const obs::LogLinHistogram& h) {
      if (h.count() == 0) return;
      if (name.rfind("prof.", 0) != 0 && name != "sweep.cell_wall_s") return;
      ReportPhase ph;
      ph.name = name;
      ph.count = h.count();
      ph.total_s = h.sum();
      ph.mean_s = h.mean();
      out->phases.push_back(std::move(ph));
    });
  }

  for (auto& [id, w] : workers) {
    if (w.elapsed_s > 0) w.utilization = w.wall_s / w.elapsed_s;
    out->workers.push_back(std::move(w));
  }

  std::sort(out->slowest.begin(), out->slowest.end(),
            [](const ReportCellRow& a, const ReportCellRow& b) {
              return a.wall_s != b.wall_s ? a.wall_s > b.wall_s : a.id < b.id;
            });
  if (out->slowest.size() > opt.top_n) out->slowest.resize(opt.top_n);
  std::sort(out->episode_cells.begin(), out->episode_cells.end(),
            [](const ReportCellRow& a, const ReportCellRow& b) {
              return a.worst_jain != b.worst_jain ? a.worst_jain < b.worst_jain
                                                  : a.id < b.id;
            });
  if (out->episode_cells.size() > opt.top_n) out->episode_cells.resize(opt.top_n);
  return true;
}

namespace {

void append_row_json(const ReportCellRow& row, std::string* out) {
  *out += "{\"id\":";
  append_quoted(row.id, out);
  *out += ",\"worker\":";
  append_quoted(row.worker, out);
  *out += ",\"status\":";
  append_quoted(row.status, out);
  obs::appendf(out, ",\"wall_s\":%.17g", row.wall_s);
  obs::appendf(out, ",\"episodes\":%.17g", row.episodes);
  obs::appendf(out, ",\"worst_jain\":%.17g", row.worst_jain);
  obs::appendf(out, ",\"victim\":%.17g", static_cast<double>(row.victim));
  *out += ",\"cause\":";
  append_quoted(row.cause, out);
  *out += '}';
}

}  // namespace

std::string render_report_json(const SweepSummary& r) {
  std::string out = "{\"schema\":\"elephant-report-v2\",\"manifest\":";
  append_quoted(r.manifest, &out);
  out += ",\"cells\":{";
  obs::appendf(&out, "\"total\":%.17g", static_cast<double>(r.cells_total));
  obs::appendf(&out, ",\"completed\":%.17g", static_cast<double>(r.completed));
  obs::appendf(&out, ",\"failed\":%.17g", static_cast<double>(r.failed));
  obs::appendf(&out, ",\"claims\":%.17g", static_cast<double>(r.claims));
  obs::appendf(&out, ",\"steals\":%.17g", static_cast<double>(r.steals));
  obs::appendf(&out, ",\"wall_s_total\":%.17g", r.wall_s_total);
  out += "},\"workers\":[";
  for (std::size_t i = 0; i < r.workers.size(); ++i) {
    const ReportWorker& w = r.workers[i];
    if (i != 0) out += ',';
    out += "{\"id\":";
    append_quoted(w.id, &out);
    obs::appendf(&out, ",\"cells\":%.17g", static_cast<double>(w.cells));
    obs::appendf(&out, ",\"claims\":%.17g", static_cast<double>(w.claims));
    obs::appendf(&out, ",\"steals\":%.17g", static_cast<double>(w.steals));
    obs::appendf(&out, ",\"wall_s\":%.17g", w.wall_s);
    obs::appendf(&out, ",\"elapsed_s\":%.17g", w.elapsed_s);
    obs::appendf(&out, ",\"utilization\":%.17g", w.utilization);
    out += '}';
  }
  out += "],\"phases\":[";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const ReportPhase& p = r.phases[i];
    if (i != 0) out += ',';
    out += "{\"name\":";
    append_quoted(p.name, &out);
    obs::appendf(&out, ",\"count\":%.17g", static_cast<double>(p.count));
    obs::appendf(&out, ",\"total_s\":%.17g", p.total_s);
    obs::appendf(&out, ",\"mean_s\":%.17g", p.mean_s);
    out += '}';
  }
  out += "],\"slowest_cells\":[";
  for (std::size_t i = 0; i < r.slowest.size(); ++i) {
    if (i != 0) out += ',';
    append_row_json(r.slowest[i], &out);
  }
  out += "],\"episode_cells\":[";
  for (std::size_t i = 0; i < r.episode_cells.size(); ++i) {
    if (i != 0) out += ',';
    append_row_json(r.episode_cells[i], &out);
  }
  out += "]}";
  return out;
}

std::string render_report_markdown(const SweepSummary& r) {
  std::string md = "# Sweep report\n\nManifest: `" + r.manifest + "`\n\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "- cells: %zu terminal (%zu completed, %zu failed)\n"
                "- leases: %zu claims, %zu steals\n"
                "- simulated wall time: %.1f s across all workers\n\n",
                r.cells_total, r.completed, r.failed, r.claims, r.steals, r.wall_s_total);
  md += buf;

  md += "## Workers\n\n| worker | cells | claims | steals | busy s | elapsed s | util |\n"
        "|---|---:|---:|---:|---:|---:|---:|\n";
  for (const ReportWorker& w : r.workers) {
    std::snprintf(buf, sizeof(buf), "| %s | %zu | %zu | %zu | %.1f | %.1f | %.0f%% |\n",
                  w.id.c_str(), w.cells, w.claims, w.steals, w.wall_s, w.elapsed_s,
                  100.0 * w.utilization);
    md += buf;
  }

  md += "\n## Wall-time by phase\n\n| phase | count | total s | mean s |\n"
        "|---|---:|---:|---:|\n";
  for (const ReportPhase& p : r.phases) {
    std::snprintf(buf, sizeof(buf), "| %s | %llu | %.3f | %.3g |\n", p.name.c_str(),
                  static_cast<unsigned long long>(p.count), p.total_s, p.mean_s);
    md += buf;
  }

  md += "\n## Slowest cells\n\n| cell | worker | status | wall s |\n|---|---|---|---:|\n";
  for (const ReportCellRow& row : r.slowest) {
    std::snprintf(buf, sizeof(buf), "| `%s` | %s | %s | %.2f |\n", row.id.c_str(),
                  row.worker.c_str(), row.status.c_str(), row.wall_s);
    md += buf;
  }

  md += "\n## Cells by unfairness-episode severity\n\n"
        "| cell | episodes | worst Jain | victim | cause |\n|---|---:|---:|---:|---|\n";
  for (const ReportCellRow& row : r.episode_cells) {
    std::snprintf(buf, sizeof(buf), "| `%s` | %.1f | %.3f | %u | %s |\n",
                  row.id.c_str(), row.episodes, row.worst_jain, row.victim,
                  row.cause.c_str());
    md += buf;
  }
  if (r.episode_cells.empty()) md += "\n_No fairness episodes recorded._\n";
  return md;
}

}  // namespace elephant::exp
