// The paper's evaluation (§5):
//
//   paper_figures <fig2|fig3|fig4|fig5|fig6|fig7|fig8|table3>...
//
// Each figure is one entry in kFigures. It lists every config once, runs the
// list as one sweep resumed from the shared journal (bench::run), then prints
// its panels. An unknown name exits 2 before anything runs.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "exp/sweep.hpp"
#include "obs/json.hpp"

namespace {

using namespace elephant;
using aqm::AqmKind;
using cca::CcaKind;

constexpr CcaKind kKinds[] = {CcaKind::kBbrV1, CcaKind::kBbrV2, CcaKind::kHtcp, CcaKind::kReno,
                              CcaKind::kCubic};

/// A figure's output in print order: text, and cells that each print one
/// config's result through the figure's cell format.
struct Layout {
  std::vector<exp::ExperimentConfig> cfgs;
  std::vector<std::string> text = {""};  ///< text[i] prints before cell i, the last after all

  template <typename... Args>
  void print(const char* fmt, const Args&... args) {
    obs::appendf(&text.back(), fmt, args...);
  }
  void cell(const exp::ExperimentConfig& cfg) {
    cfgs.push_back(cfg);
    text.emplace_back();
  }
  /// One c1-vs-c2 cell per paper bandwidth, then the end of the row.
  void bw_cells(CcaKind c1, CcaKind c2, AqmKind aqm, double bdp) {
    for (const auto& c : exp::make_matrix({{c1, c2}}, {aqm}, {bdp}, exp::paper_bandwidths())) {
      cell(c);
    }
    print("\n");
  }
  /// A column header: `first` in `label_width`, then one bandwidth per `width`.
  void bw_header(const char* first, int label_width, int width) {
    print("  %-*s", label_width, first);
    for (const double bw : exp::paper_bandwidths()) {
      print(" %*s", width, exp::bw_label(bw).c_str());
    }
    print("\n");
  }
};

struct Figure {
  const char* name;
  const char* title;
  const char* claim;  ///< the shape the paper reports
  void (*layout)(Layout* out);  ///< null for Table 3, which has its own
  void (*cell)(const exp::AveragedResult& res);
};

/// Per-sender throughput vs buffer size, one panel per challenger × bandwidth.
void throughput_panels(Layout* out, AqmKind aqm) {
  char panel = 'a';
  for (const CcaKind k : kKinds) {
    if (k == CcaKind::kCubic) continue;
    const std::string name = cca::to_string(k);
    for (const double bw : exp::paper_bandwidths()) {
      out->print("\n(%c) %s vs cubic @ %s\n", panel++, name.c_str(), exp::bw_label(bw).c_str());
      out->print("  %-11s %14s %14s\n", "buffer(BDP)", (name + "(Mb/s)").c_str(),
                 "cubic(Mb/s)");
      for (const double bdp : exp::paper_buffer_bdps()) {
        out->print("  %-11g", bdp);
        out->cell(exp::make_matrix({{k, CcaKind::kCubic}}, {aqm}, {bdp}, {bw})[0]);
        out->print("\n");
      }
    }
  }
}

/// Jain index per pair × bandwidth: inter-CCA pairs vs CUBIC at 2 and 16 BDP,
/// then intra-CCA pairs (CUBIC's own is an inter row) at 2 and 16 BDP.
void jain_panels(Layout* out, AqmKind aqm) {
  char panel = 'a';
  for (const bool intra : {false, true}) {
    for (const double bdp : {2.0, 16.0}) {
      out->print("\n(%c) %s-CCA, buffer = %g BDP\n", panel++, intra ? "intra" : "inter", bdp);
      out->bw_header("pair", 16, 8);
      for (const CcaKind k : kKinds) {
        if (intra && k == CcaKind::kCubic) continue;
        const CcaKind other = intra ? k : CcaKind::kCubic;
        out->print("  %-16s", (cca::to_string(k) + " vs " + cca::to_string(other)).c_str());
        out->bw_cells(k, other, aqm, bdp);
      }
    }
  }
}

/// One intra-CCA metric per CCA × bandwidth, per AQM at 2 and 16 BDP.
void intra_panels(Layout* out, const char* caption, int width) {
  char panel = 'a';
  for (const AqmKind aqm : {AqmKind::kFifo, AqmKind::kRed, AqmKind::kFqCodel}) {
    for (const double bdp : {2.0, 16.0}) {
      out->print("\n(%c) AQM = %s, buffer = %g BDP  (%s)\n", panel++,
                 aqm::to_string(aqm).c_str(), bdp, caption);
      out->bw_header("CCA", 10, width);
      for (const CcaKind k : kKinds) {
        out->print("  %-10s", cca::to_string(k).c_str());
        out->bw_cells(k, k, aqm, bdp);
      }
    }
  }
}

void throughput_cell(const exp::AveragedResult& res) {
  std::printf(" %14s %14s", bench::mbps(res.sender_bps[0]).c_str(),
              bench::mbps(res.sender_bps[1]).c_str());
}

void jain_cell(const exp::AveragedResult& res) { std::printf(" %8.3f", res.jain2); }

const Figure kFigures[] = {
    // The equilibrium buffer where CUBIC overtakes moves right with bandwidth.
    {"fig2", "Figure 2: per-sender throughput vs buffer size, AQM = FIFO",
     "BBRv1/BBRv2 beat CUBIC below a BW-dependent equilibrium buffer size; "
     "CUBIC overtakes beyond it (2xBDP inflight cap). HTCP and Reno lose "
     "share to CUBIC as buffers deepen.",
     [](Layout* out) { throughput_panels(out, AqmKind::kFifo); }, throughput_cell},
    {"fig3", "Figure 3: Jain's fairness index, AQM = FIFO",
     "Inter-CCA fairness varies with buffer size and BW (BBRv1 dips at 16 BDP "
     "for 1-10G); intra-CCA pairs stay near J = 1 everywhere.",
     [](Layout* out) { jain_panels(out, AqmKind::kFifo); }, jain_cell},
    // RED's random drops stay under BBR's reaction thresholds while they
    // devastate loss-based CUBIC, whatever the buffer size.
    {"fig4", "Figure 4: per-sender throughput vs buffer size, AQM = RED",
     "BBRv1 consumes nearly all bandwidth while CUBIC starves; BBRv2 "
     "similar (drop rate rarely crosses its 2% threshold); HTCP > CUBIC; "
     "Reno and CUBIC balanced.",
     [](Layout* out) { throughput_panels(out, AqmKind::kRed); }, throughput_cell},
    // J ~ 0.5 is the total starvation of one sender.
    {"fig5", "Figure 5: Jain's fairness index, AQM = RED",
     "BBRv1 vs CUBIC collapses toward J = 0.5; BBRv2 vs CUBIC also unfair; "
     "HTCP/Reno vs CUBIC fair; intra-CCA fair except BBRv1's RTO churn.",
     [](Layout* out) { jain_panels(out, AqmKind::kRed); }, jain_cell},
    {"fig6", "Figure 6: Jain's fairness index, AQM = FQ_CODEL",
     "FQ_CODEL's per-flow queues give J ~ 1 for every pairing, inter and "
     "intra, at both buffer depths.",
     [](Layout* out) { jain_panels(out, AqmKind::kFqCodel); }, jain_cell},
    {"fig7", "Figure 7: overall link utilization (intra-CCA)",
     "FIFO: ~full utilization for all CCAs. FQ_CODEL: near-full except at "
     "25G. RED: large losses in utilization from 1G upward; only BBRv1 "
     "exceeds 20G at 25G.",
     [](Layout* out) { intra_panels(out, "link utilization phi", 8); },
     [](const exp::AveragedResult& res) { std::printf(" %8.3f", res.utilization); }},
    {"fig8", "Figure 8: retransmissions (intra-CCA)",
     "BBRv1 retransmits by far the most (loss-blind); BBRv2 second; HTCP "
     "third; Reno/CUBIC lowest. FIFO: retx fall as buffers grow. RED & "
     "FQ_CODEL: retx rise with BW, insensitive to buffer size.",
     [](Layout* out) { intra_panels(out, "retransmitted segments", 10); },
     [](const exp::AveragedResult& res) { std::printf(" %10.0f", res.retx_segments); }},
    {"table3", "Table 3: overall performance comparison (810 configurations)",
     "BBRv1 wastes resources (huge RR, no benefit); Reno lags; CUBIC strong "
     "alone but loses head-to-head; HTCP & BBRv2 best overall, BBRv2 "
     "slightly ahead on utilization at the cost of more retransmissions; "
     "RED worst for fairness and high-BW utilization.",
     nullptr, nullptr},
};

/// Table 3: per CCA pair × AQM, the means over the 30 (buffer, bandwidth)
/// cells of utilization phi (Eq. 3), retransmissions relative to the
/// cubic-vs-cubic cell RR (Eq. 4) and the per-sender Jain index (Eq. 2).
void print_table3() {
  // The paper's row order; cubic vs cubic, the RR baseline, last.
  std::vector<std::pair<CcaKind, CcaKind>> rows;
  for (const CcaKind k : kKinds) {
    rows.emplace_back(k, k);
    if (k != CcaKind::kCubic) rows.emplace_back(k, CcaKind::kCubic);
  }
  const std::vector<AqmKind>& aqms = exp::paper_aqms();
  const std::vector<exp::AveragedResult> results = bench::run(
      exp::make_matrix(rows, aqms, exp::paper_buffer_bdps(), exp::paper_bandwidths()));
  const std::size_t cells = results.size() / (rows.size() * aqms.size());
  auto at = [&](std::size_t row, std::size_t a, std::size_t cell) -> const auto& {
    return results[(row * aqms.size() + a) * cells + cell];
  };

  std::printf("\n%-16s %-9s %10s %10s %12s\n", "CCA1 vs CCA2", "AQM", "Avg(phi)", "Avg(RR)",
              "Avg(Jindex)");
  for (std::size_t a = 0; a < aqms.size(); ++a) {
    for (std::size_t row = 0; row < rows.size(); ++row) {
      double phi = 0;
      double rr = 0;
      double jain = 0;
      for (std::size_t cell = 0; cell < cells; ++cell) {
        const exp::AveragedResult& res = at(row, a, cell);
        phi += res.utilization;
        rr += res.retx_segments / std::max(at(rows.size() - 1, a, cell).retx_segments, 1.0);
        jain += res.jain2;
      }
      const double n = static_cast<double>(cells);
      std::printf("%-16s %-9s %10.3f %10.3f %12.3f\n",
                  bench::pair_label(at(row, a, 0).config).c_str(),
                  aqm::to_string(aqms[a]).c_str(), phi / n, rr / n, jain / n);
    }
    std::printf("\n");
  }
}

void print_figure(const Figure& fig) {
  bench::print_banner(fig.title, fig.claim);
  if (fig.layout == nullptr) return print_table3();
  Layout out;
  fig.layout(&out);
  const std::vector<exp::AveragedResult> results = bench::run(out.cfgs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fputs(out.text[i].c_str(), stdout);
    fig.cell(results[i]);
  }
  std::fputs(out.text.back().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Figure*> chosen;
  for (int i = 1; i < argc; ++i) {
    for (const Figure& f : kFigures) {
      if (argv[i] == std::string_view(f.name)) chosen.push_back(&f);
    }
    if (chosen.size() != static_cast<std::size_t>(i)) {
      std::fprintf(stderr, "paper_figures: unknown figure '%s'\n", argv[i]);
      return 2;
    }
  }
  if (chosen.empty()) {
    std::fprintf(stderr,
                 "usage: paper_figures <fig2|fig3|fig4|fig5|fig6|fig7|fig8|table3>...\n");
    return 2;
  }
  try {
    for (const Figure* fig : chosen) print_figure(*fig);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paper_figures: %s\n", e.what());
    return 1;
  }
  return 0;
}
