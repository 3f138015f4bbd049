// `elephant report`: merge the durable artifacts of one sweep — the manifest
// journal, its heartbeat journal, and the per-cell fairness-episode
// summaries — into a single forensics document. The latest line per id
// decides a cell's outcome.

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

namespace elephant::exp {

namespace {

void append_quoted(const std::string& s, std::string* out) {
  *out += '"';
  obs::append_json_escaped(s, out);
  *out += '"';
}

ReportCellRow make_row(const ManifestEntry& e) {
  ReportCellRow row;
  row.id = e.id;
  row.status = to_string(e.status);
  row.wall_s = e.wall_s;
  row.episodes = e.result.episodes;
  row.worst_jain = e.result.episode_worst_jain;
  row.victim = e.result.episode_victim;
  row.cause = e.result.episode_cause;
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
  std::map<std::string, ManifestEntry> latest;  // by id
  std::string line;
  while (std::getline(in, line)) {
    ManifestEntry e;
    if (SweepManifest::parse_line(line, &e)) latest[e.id] = std::move(e);  // else torn
  }
  if (latest.empty()) {
    if (error != nullptr) {
      *error = "no parseable journal line in " + opt.manifest_path.string();
    }
    return false;
  }
  for (const auto& [id, e] : latest) {
    ++out->cells_total;
    if (e.success()) {
      ++out->completed;
      out->wall_s_total += e.wall_s;
    } else {
      ++out->failed;
    }
    if (e.wall_s > 0) out->slowest.push_back(make_row(e));
    if (e.result.episodes > 0) out->episode_cells.push_back(make_row(e));
  }

  // The heartbeat journal's last snapshot: phase histograms.
  const std::filesystem::path metrics =
      !opt.metrics_path.empty()
          ? opt.metrics_path
          : (opt.manifest_path.has_parent_path() ? opt.manifest_path.parent_path()
                                                 : std::filesystem::path(".")) /
                "metrics.jsonl";
  obs::JournalSnapshot snap;
  if (obs::read_final_snapshot(metrics, &snap, nullptr)) {
    for (const auto& [name, h] : snap.histograms) {
      if (h.count() == 0) continue;
      if (name.rfind("prof.", 0) != 0 && name != "sweep.cell_wall_s") continue;
      out->phases.push_back({name, h.count(), h.sum(), h.mean()});
    }
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
  std::string out = "{\"schema\":\"elephant-report-v3\",\"manifest\":";
  append_quoted(r.manifest, &out);
  out += ",\"cells\":{";
  obs::appendf(&out, "\"total\":%.17g", static_cast<double>(r.cells_total));
  obs::appendf(&out, ",\"completed\":%.17g", static_cast<double>(r.completed));
  obs::appendf(&out, ",\"failed\":%.17g", static_cast<double>(r.failed));
  obs::appendf(&out, ",\"wall_s_total\":%.17g", r.wall_s_total);
  out += "},\"phases\":[";
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
                "- cells: %zu journaled (%zu completed, %zu failed)\n"
                "- simulated wall time: %.1f s\n\n",
                r.cells_total, r.completed, r.failed, r.wall_s_total);
  md += buf;

  md += "## Wall-time by phase\n\n| phase | count | total s | mean s |\n"
        "|---|---:|---:|---:|\n";
  for (const ReportPhase& p : r.phases) {
    std::snprintf(buf, sizeof(buf), "| %s | %llu | %.3f | %.3g |\n", p.name.c_str(),
                  static_cast<unsigned long long>(p.count), p.total_s, p.mean_s);
    md += buf;
  }

  md += "\n## Slowest cells\n\n| cell | status | wall s |\n|---|---|---:|\n";
  for (const ReportCellRow& row : r.slowest) {
    std::snprintf(buf, sizeof(buf), "| `%s` | %s | %.2f |\n", row.id.c_str(),
                  row.status.c_str(), row.wall_s);
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
