#include "exp/claims.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "exp/sweep.hpp"
#include "obs/json.hpp"
#include "sim/random.hpp"

namespace elephant::exp {

namespace {

using enum cca::CcaKind;
using enum aqm::AqmKind;
using Results = std::span<const AveragedResult>;
using Values = std::vector<double>;
using Cells = std::vector<ExperimentConfig>;

// Most claims read a make_matrix grid, whose cells run pair-major, then AQM,
// buffer and bandwidth; over all five bandwidths, grid row r (one pair, AQM
// and buffer) is cells [5r, 5r + 5).
const std::vector<cca::CcaKind> kCcas = {kBbrV1, kBbrV2, kHtcp, kReno, kCubic};  // Figs. 7, 8

std::vector<std::pair<cca::CcaKind, cca::CcaKind>> intra(const std::vector<cca::CcaKind>& ks) {
  std::vector<std::pair<cca::CcaKind, cca::CcaKind>> out;
  for (const cca::CcaKind k : ks) out.emplace_back(k, k);
  return out;
}

/// Sender 1's share of the delivered bytes.
double share(const AveragedResult& r) {
  const double sum = r.sender_bps[0] + r.sender_bps[1];
  return sum > 0 ? r.sender_bps[0] / sum : 0.5;
}
double jain(const AveragedResult& r) { return r.jain2; }
double util(const AveragedResult& r) { return r.utilization; }
double retx(const AveragedResult& r) { return r.retx_segments; }

const ClassResult& traffic_class(const AveragedResult& r, const std::string& name) {
  for (const ClassResult& c : r.classes) {
    if (c.name == name) return c;
  }
  throw std::logic_error(r.config.label() + " has no class " + name);
}

/// f of every `stride`-th cell of [first, first + n); n = 0 runs to the end.
template <typename F>
Values map(Results rs, F f, std::size_t first = 0, std::size_t n = 0, std::size_t stride = 1) {
  Values out;
  for (std::size_t i = first; i < (n == 0 ? rs.size() : first + n); i += stride) {
    out.push_back(f(rs[i]));
  }
  return out;
}
/// f of grid row r, one value per bandwidth.
template <typename F>
Values row(Results rs, F f, std::size_t r) {
  return map(rs, f, 5 * r, 5);
}
double sum(const Values& v) { return std::accumulate(v.begin(), v.end(), 0.0); }
double min(const Values& v) { return *std::min_element(v.begin(), v.end()); }
double max(const Values& v) { return *std::max_element(v.begin(), v.end()); }
/// Means of f over `groups` equal runs of consecutive cells.
template <typename F>
Values group_means(Results rs, F f, std::size_t groups) {
  Values out;
  const std::size_t n = rs.size() / groups;
  for (std::size_t g = 0; g < groups; ++g) out.push_back(sum(map(rs, f, g * n, n)) / n);
  return out;
}

/// "label a/b/c", +inf printed as ">16" (an equilibrium past every buffer).
std::string list(const std::string& label, const Values& v, const char* fmt = "%.2f") {
  std::string out = label;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += i == 0 ? ' ' : '/';
    if (std::isinf(v[i])) {
      out += ">16";
    } else {
      obs::appendf(&out, fmt, v[i]);
    }
  }
  return out;
}
std::string range(const std::string& label, const Values& v) {
  std::string out;
  obs::appendf(&out, "%s %.3f–%.3f", label.c_str(), min(v), max(v));
  return out;
}

/// Per bandwidth, over a FIFO grid of one pair at all six buffer sizes and
/// `n_bws` bandwidths: the buffer (BDP) at which sender 1's share falls to
/// 0.5, log-interpolated between buffer sizes; 0.5 if sender 1 is never
/// ahead, +inf if it never falls behind.
Values equilibria(Results rs, std::size_t n_bws) {
  const std::vector<double>& bdps = paper_buffer_bdps();
  Values out(n_bws, INFINITY);
  for (std::size_t w = 0; w < n_bws; ++w) {
    for (std::size_t b = 0; b < bdps.size(); ++b) {
      const double s = share(rs[b * n_bws + w]);
      if (s > 0.5) continue;
      if (b == 0) {
        out[w] = bdps[0];
      } else {
        const double prev = share(rs[(b - 1) * n_bws + w]);
        out[w] = bdps[b - 1] * std::pow(bdps[b] / bdps[b - 1], (prev - 0.5) / (prev - s));
      }
      break;
    }
  }
  return out;
}

/// A claim that reads f of each cell, in cell order, and holds when
/// `holds` does on those values.
template <typename F, typename P>
Claim over(const char* id, const char* wording, Cells cells, std::string what, F f, P holds,
           const char* fmt = "%.2f") {
  return {id, wording, std::move(cells), [=](Results rs) {
            const Values v = map(rs, f);
            return ClaimCheck{holds(v), list(what, v, fmt)};
          }};
}

/// A claim that f of every cell lies in [lo, hi]; it reports f's range per
/// bandwidth.
template <typename F>
Claim every_cell(const char* id, const char* wording, Cells cells, const char* what, F f,
                 double lo, double hi) {
  return {id, wording, std::move(cells), [=](Results rs) {
            ClaimCheck c{true, what};
            for (const double bw : paper_bandwidths()) {
              Values v;
              for (const AveragedResult& r : rs) {
                if (r.config.bottleneck_bps == bw) v.push_back(f(r));
              }
              if (v.empty()) continue;
              c.holds = c.holds && min(v) >= lo && max(v) <= hi;
              obs::appendf(&c.values, " %s %.2f", bw_label(bw).c_str(), min(v));
              if (max(v) > min(v)) obs::appendf(&c.values, "–%.2f", max(v));
            }
            return c;
          }};
}

/// A claim that the mean of f over each of `groups` equal runs of cells (one
/// per pair of a grid) lies in [lo, hi].
template <typename F>
Claim means(const char* id, const char* wording, Cells cells, std::size_t groups,
            std::string what, F f, double lo, double hi) {
  return {id, wording, std::move(cells), [=](Results rs) {
            const Values m = group_means(rs, f, groups);
            return ClaimCheck{min(m) >= lo && max(m) <= hi, list(what, m)};
          }};
}

/// A claim on c1's FIFO share against CUBIC at 0.5 BDP (lo) and 16 BDP
/// (hi): holds(lo, hi) at every bandwidth.
Claim buffer_shift(const char* id, const char* wording, cca::CcaKind c1,
                   bool (*holds)(double lo, double hi)) {
  return {id, wording, make_matrix({{c1, kCubic}}, {kFifo}, {0.5, 16}, paper_bandwidths()),
          [=](Results rs) {
            const Values lo = row(rs, share, 0), hi = row(rs, share, 1);
            bool ok = true;
            for (std::size_t w = 0; w < 5; ++w) ok = ok && holds(lo[w], hi[w]);
            return ClaimCheck{ok, list(cca::to_string(c1) + " share 0.5 BDP", lo) + "; " +
                                      list("16 BDP", hi)};
          }};
}

/// A claim that each intra pair of `kinds` under FIFO retransmits no more at
/// 16 BDP than at 2 BDP at any bandwidth, and less in total.
Claim retx_fall_with_buffer(const char* id, const char* wording,
                            std::vector<cca::CcaKind> kinds) {
  return {id, wording, make_matrix(intra(kinds), {kFifo}, {2, 16}, paper_bandwidths()),
          [](Results rs) {
            bool holds = true;
            Values sums;
            for (std::size_t r = 0; r < rs.size() / 5; r += 2) {
              const Values at2 = row(rs, retx, r), at16 = row(rs, retx, r + 1);
              for (std::size_t w = 0; w < 5; ++w) holds = holds && at16[w] <= at2[w];
              holds = holds && sum(at16) < sum(at2);
              sums.insert(sums.end(), {sum(at2), sum(at16)});
            }
            return ClaimCheck{holds, list("retx 2/16 BDP by CCA", sums, "%.3g")};
          }};
}

/// Table 3: per row 3p + a (pair p of paper_cca_pairs(), AQM a of
/// paper_aqms(): 0 FIFO, 1 FQ-CoDel, 2 RED), the means over its 30 (buffer,
/// bandwidth) cells of utilization φ, retransmissions relative to the
/// cubic-vs-cubic cell (RR) and the Jain index.
struct Table3 {
  Values phi, rr, jain;
};

template <typename F>
Claim table3_claim(const char* id, const char* wording, F check) {
  return {id, wording,
          make_matrix(paper_cca_pairs(), paper_aqms(), paper_buffer_bdps(), paper_bandwidths()),
          [check](Results rs) {
            Table3 t{group_means(rs, util, 27), {}, group_means(rs, jain, 27)};
            for (std::size_t row = 0; row < 27; ++row) {
              double rr = 0;  // cubic vs cubic is pair 4, rows 12–14
              for (std::size_t i = 0; i < 30; ++i) {
                rr += retx(rs[30 * row + i]) / std::max(retx(rs[30 * (12 + row % 3) + i]), 1.0);
              }
              t.rr.push_back(rr / 30);
            }
            return check(t);
          }};
}

/// Every pair's row under AQM a.
Values per_aqm(const Values& rows, std::size_t a) {
  Values out;
  for (std::size_t i = a; i < rows.size(); i += 3) out.push_back(rows[i]);
  return out;
}

std::string table3_label(std::size_t row) {
  const auto& [c1, c2] = paper_cca_pairs()[row / 3];
  return cca::to_string(c1) + " vs " + cca::to_string(c2) + " " +
         aqm::to_string(paper_aqms()[row % 3]);
}

/// A claim that a Table 3 metric lies in [lo, hi] for every pair under AQM a.
Claim table3_range(const char* id, const char* wording, Values Table3::*metric, std::size_t a,
                   double lo, double hi) {
  return table3_claim(id, wording, [=](const Table3& t) {
    const Values v = per_aqm(t.*metric, a);
    return ClaimCheck{min(v) >= lo && max(v) <= hi,
                      range(metric == &Table3::jain ? "Avg(J)" : "Avg(φ)", v)};
  });
}

/// The base cell of the studies: c1 vs c2 through a 2-BDP FIFO at 500M.
ExperimentConfig study_cell(cca::CcaKind c1, cca::CcaKind c2) {
  return make_matrix({{c1, c2}}, {kFifo}, {2}, {500e6})[0];
}

}  // namespace

std::vector<Claim> paper_claims() {
  const std::vector<double>& bws = paper_bandwidths();
  const std::vector<double>& bdps = paper_buffer_bdps();
  const std::vector<double> high_bws = {1e9, 10e9, 25e9}, two = {2, 16};
  const std::string ccas = "bbr1/bbr2/htcp/reno/cubic";
  std::vector<Claim> out;

  // Figure 2: per-sender throughput vs buffer size, FIFO.
  out.push_back(buffer_shift("fig2.bbr1_wins_small_loses_deep",
                             "FIFO: BBRv1 ahead of CUBIC at 0.5 BDP, CUBIC ahead by 16 BDP",
                             kBbrV1,
                             [](double lo, double hi) { return lo > 0.5 && hi < 0.5; }));
  out.push_back({"fig2.bbr1_equilibrium_shifts_right",
                 "FIFO: the BBRv1/CUBIC equilibrium buffer is larger at 25G than at 100M "
                 "(paper ≈2 → ≈3.5 BDP)",
                 make_matrix({{kBbrV1, kCubic}}, {kFifo}, bdps, bws), [](Results rs) {
                   const Values x = equilibria(rs, 5);
                   return ClaimCheck{x[4] > x[0], list("equilibrium BDP", x, "%.1f")};
                 }});
  out.push_back(every_cell("fig2.bbr2_behind_cubic_to_500m",
                           "FIFO: CUBIC ahead of BBRv2 at every buffer at 100M and 500M",
                           make_matrix({{kBbrV2, kCubic}}, {kFifo}, bdps, {100e6, 500e6}),
                           "bbr2 share", share, 0, 0.4999));
  out.push_back({"fig2.bbr2_equilibrium_high_bw",
                 "FIFO: the BBRv2/CUBIC equilibrium sits at ≈1.5/5/6 BDP at 1G/10G/25G "
                 "(within 2×), CUBIC ahead beyond it",
                 make_matrix({{kBbrV2, kCubic}}, {kFifo}, bdps, high_bws), [](Results rs) {
                   const Values x = equilibria(rs, 3);
                   const bool holds = std::abs(std::log2(x[0] / 1.5)) <= 1 &&
                                      std::abs(std::log2(x[1] / 5)) <= 1 &&
                                      std::abs(std::log2(x[2] / 6)) <= 1;
                   return ClaimCheck{holds, list("equilibrium BDP 1G/10G/25G", x, "%.1f")};
                 }});
  out.push_back(buffer_shift("fig2.htcp_loses_share_deeper",
                             "FIFO: H-TCP loses share to CUBIC as buffers deepen", kHtcp,
                             [](double lo, double hi) { return hi < lo; }));
  out.push_back(buffer_shift("fig2.reno_behind_and_falling",
                             "FIFO: Reno starts behind CUBIC and falls further behind as "
                             "buffers deepen",
                             kReno, [](double lo, double hi) { return lo < 0.5 && hi < lo; }));

  // Figure 3: Jain index, FIFO.
  const Cells fifo_intra = make_matrix(intra(kCcas), {kFifo}, two, bws);
  out.push_back(means("fig3.intra_fair_on_average",
                      "FIFO: each CCA's intra-CCA mean J over 2 and 16 BDP ≥ 0.9", fifo_intra,
                      5, "mean J " + ccas, jain, 0.9, 1));
  out.push_back(every_cell("fig3.intra_fair_every_cell",
                           "FIFO: intra-CCA J ≈ 1 (≥ 0.95) at 2 and 16 BDP, every CCA",
                           fifo_intra, "J", jain, 0.95, 1));
  out.push_back(over("fig3.bbr1_cubic_deep_dip_recovers_25g",
                     "FIFO, 16 BDP: BBRv1 vs CUBIC J degrades (< 0.9) in 500M–10G and "
                     "recovers (≥ 0.9) at 25G",
                     make_matrix({{kBbrV1, kCubic}}, {kFifo}, {16}, bws), "J", jain,
                     [](const Values& j) {
                       return std::min({j[1], j[2], j[3]}) < 0.9 && j[4] >= 0.9;
                     }));

  // Figure 4: per-sender throughput vs buffer size, RED.
  out.push_back(every_cell("fig4.bbr1_starves_cubic",
                           "RED: BBRv1 takes almost all bandwidth (share ≥ 0.8)",
                           make_matrix({{kBbrV1, kCubic}}, {kRed}, bdps, bws), "bbr1 share",
                           share, 0.8, 1));
  const Cells red_bbr2 = make_matrix({{kBbrV2, kCubic}}, {kRed}, bdps, bws);
  out.push_back(means("fig4.bbr2_ahead_of_cubic", "RED: BBRv2 beats CUBIC (mean share > 0.5)",
                      red_bbr2, 1, "mean bbr2 share", share, 0.5001, 1));
  out.push_back(means("fig4.bbr2_dominates_cubic",
                      "RED: BBRv2 dominates CUBIC as in the paper, J ≈ 0.72 (mean J ≤ 0.8)",
                      red_bbr2, 1, "mean J", jain, 0, 0.8));
  out.push_back(every_cell("fig4.htcp_beats_cubic", "RED: H-TCP ahead of CUBIC at every buffer",
                           make_matrix({{kHtcp, kCubic}}, {kRed}, bdps, bws), "htcp share",
                           share, 0.5001, 1));
  out.push_back(every_cell("fig4.reno_matches_cubic", "RED: Reno ≈ CUBIC (J ≥ 0.95 everywhere)",
                           make_matrix({{kReno, kCubic}}, {kRed}, bdps, bws), "J", jain, 0.95,
                           1));

  // Figure 5: Jain index, RED.
  out.push_back(every_cell("fig5.bbr1_cubic_near_half",
                           "RED: BBRv1 vs CUBIC J ≈ 0.5, starvation (≤ 0.65 at 2 and 16 BDP)",
                           make_matrix({{kBbrV1, kCubic}}, {kRed}, two, bws), "J", jain, 0,
                           0.65));
  out.push_back({"fig5.bbr1_intra_least_fair",
                 "RED: BBRv1 intra-CCA is unstable, its mean J below every other intra pair's",
                 make_matrix(intra(kCcas), {kRed}, two, bws), [=](Results rs) {
                   const Values m = group_means(rs, jain, 5);
                   return ClaimCheck{m[0] < std::min({m[1], m[2], m[3], m[4]}),
                                     list("mean J " + ccas, m)};
                 }});
  out.push_back(means("fig5.others_fair",
                      "RED: BBRv2, H-TCP and Reno intra and Reno vs CUBIC ≈ 1 (mean J ≥ 0.95)",
                      make_matrix({{kBbrV2, kBbrV2}, {kHtcp, kHtcp}, {kReno, kReno},
                                   {kReno, kCubic}},
                                  {kRed}, two, bws),
                      4, "mean J bbr2/htcp/reno/reno-vs-cubic", jain, 0.95, 1));

  // Figure 6: Jain index, FQ-CoDel.
  out.push_back(every_cell("fig6.fq_codel_fair_everywhere",
                           "FQ-CoDel: J ≈ 1 (≥ 0.95) for every pairing at 2 and 16 BDP",
                           make_matrix(paper_cca_pairs(), {kFqCodel}, two, bws), "J", jain,
                           0.95, 1));

  // Figure 7: link utilization, intra-CCA.
  out.push_back(every_cell("fig7.fifo_full", "FIFO: near-full utilization (≥ 0.9) everywhere",
                           fifo_intra, "util", util, 0.9, 1.5));
  out.push_back(every_cell("fig7.fq_codel_full_below_25g",
                           "FQ-CoDel: near-full utilization (≥ 0.9) from 100M to 10G",
                           make_matrix(intra(kCcas), {kFqCodel}, two, {1e8, 5e8, 1e9, 1e10}),
                           "util", util, 0.9, 1.5));
  out.push_back({"fig7.fq_codel_dips_at_25g",
                 "FQ-CoDel: 25G is the exception, its mean utilization below every other BW's",
                 make_matrix(intra(kCcas), {kFqCodel}, two, bws), [](Results rs) {
                   Values m(5);
                   for (std::size_t w = 0; w < 5; ++w) m[w] = sum(map(rs, util, w, 0, 5)) / 10;
                   return ClaimCheck{m[4] < std::min({m[0], m[1], m[2], m[3]}),
                                     list("mean util", m)};
                 }});
  out.push_back(every_cell("fig7.red_collapse_loss_based",
                           "RED: H-TCP, Reno and CUBIC utilization collapses from 1G up (paper "
                           "0.74–0.79; ≤ 0.8)",
                           make_matrix(intra({kHtcp, kReno, kCubic}), {kRed}, two, high_bws),
                           "util", util, 0, 0.8));
  out.push_back(over("fig7.red_only_bbr1_over_20g",
                     "RED at 25G: only BBRv1 exceeds 20 Gb/s, at 2 and 16 BDP",
                     make_matrix(intra(kCcas), {kRed}, two, {25e9}),
                     "Gb/s at 2, 16 BDP " + ccas,
                     [](const AveragedResult& r) { return 25 * util(r); },
                     [](const Values& g) {
                       bool holds = true;
                       for (std::size_t i = 0; i < g.size(); ++i) {
                         holds = holds && (i < 2) == (g[i] > 20);
                       }
                       return holds;
                     }, "%.1f"));

  // Figure 8: retransmissions, intra-CCA; 30 cells per CCA.
  out.push_back({"fig8.retx_order",
                 "BBRv1 retransmits by far the most (≥ 3× any other CCA in total), then BBRv2 "
                 "> H-TCP > Reno ≈ CUBIC",
                 make_matrix(intra(kCcas), paper_aqms(), two, bws), [=](Results rs) {
                   Values t = group_means(rs, retx, 5);
                   for (double& v : t) v *= 30;
                   const bool holds = t[0] >= 3 * std::max({t[1], t[2], t[3], t[4]}) &&
                                      t[1] > t[2] && t[2] > std::max(t[3], t[4]);
                   return ClaimCheck{holds, list("total retx " + ccas, t, "%.3g")};
                 }});
  out.push_back(retx_fall_with_buffer("fig8.fifo_bbr_retx_fall_with_buffer",
                                      "FIFO: BBRv1 and BBRv2 retransmit less as buffers grow",
                                      {kBbrV1, kBbrV2}));
  out.push_back(retx_fall_with_buffer("fig8.fifo_loss_based_retx_fall_with_buffer",
                                      "FIFO: H-TCP, Reno and CUBIC retransmit less as buffers "
                                      "grow",
                                      {kHtcp, kReno, kCubic}));
  out.push_back({"fig8.red_fq_retx_rise_with_bw",
                 "RED and FQ-CoDel: no CCA's retransmissions fall as bandwidth rises; each "
                 "CCA's 16-BDP total is within 1.5× of its 2-BDP one",
                 make_matrix(intra(kCcas), {kRed, kFqCodel}, two, bws), [](Results rs) {
                   int rising = 0;
                   Values ratio;
                   for (std::size_t r = 0; r < 20; ++r) {
                     const Values v = row(rs, retx, r);
                     rising += std::is_sorted(v.begin(), v.end()) ? 1 : 0;
                     const double at2 = sum(row(rs, retx, r - r % 2));
                     if (r % 2 == 1) ratio.push_back(sum(v) / std::max(at2, 1.0));
                   }
                   return ClaimCheck{rising == 20 && min(ratio) >= 1 / 1.5 && max(ratio) <= 1.5,
                                     std::to_string(rising) + " of 20 series rise; " +
                                         range("16/2 BDP retx ratio", ratio)};
                 }});

  // Table 3; BBRv1's rows are pairs 0 (vs CUBIC) and 5 (intra).
  out.push_back(table3_claim(
      "table3.bbr1_rr_order_of_magnitude",
      "BBRv1 rows: Avg(RR) an order of magnitude above everyone (≥ 5× any other row, per "
      "AQM)",
      [](const Table3& t) {
        ClaimCheck c{true, "Avg(RR) BBRv1 rows vs the rest's max:"};
        for (std::size_t a = 0; a < 3; ++a) {
          Values rr = per_aqm(t.rr, a);
          const double bbr1 = std::min(rr[0], rr[5]);
          rr[0] = rr[5] = 0;
          c.holds = c.holds && bbr1 >= 5 * max(rr);
          obs::appendf(&c.values, " %s %.1f vs %.1f", aqm::to_string(paper_aqms()[a]).c_str(),
                       bbr1, max(rr));
        }
        return c;
      }));
  out.push_back(table3_claim(
      "table3.bbr1_cubic_red_least_fair",
      "BBRv1 vs CUBIC under RED has the lowest Avg(J) of the table (paper 0.522)",
      [](const Table3& t) {
        std::vector<std::size_t> rows(t.jain.size());
        std::iota(rows.begin(), rows.end(), 0);
        std::sort(rows.begin(), rows.end(),
                  [&](std::size_t a, std::size_t b) { return t.jain[a] < t.jain[b]; });
        ClaimCheck c{rows[0] == 2, ""};  // pair 0, RED
        obs::appendf(&c.values, "lowest %s %.3f, next %s %.3f", table3_label(rows[0]).c_str(),
                     t.jain[rows[0]], table3_label(rows[1]).c_str(), t.jain[rows[1]]);
        return c;
      }));
  out.push_back(table3_range("table3.fq_codel_fair",
                             "FQ-CoDel: Avg(J) ≈ 1 for every pair (paper 0.994–1.0; ≥ 0.95)",
                             &Table3::jain, 1, 0.95, 1));
  out.push_back(table3_range("table3.fifo_full",
                             "FIFO: Avg(φ) ≈ 1 for every pair (paper 0.986–0.999; ≥ 0.95)",
                             &Table3::phi, 0, 0.95, 1.5));
  out.push_back(table3_range("table3.red_utilization_degraded",
                             "RED: Avg(φ) degraded for every pair (paper 0.738–0.940; ≤ 0.94)",
                             &Table3::phi, 2, 0, 0.94));
  out.push_back(table3_claim(
      "table3.reno_cubic_fifo_j", "Reno vs CUBIC, FIFO: Avg(J) within 0.05 of paper's 0.847",
      [](const Table3& t) {
        const double j = t.jain[3 * 3 + 0];
        return ClaimCheck{std::abs(j - 0.847) <= 0.05, list("Avg(J)", {j}, "%.3f")};
      }));
  out.push_back(table3_claim(
      "table3.bbr2_fq_codel_top",
      "BBRv2 vs CUBIC under FQ-CoDel is a top combination: Avg(J) ≥ 0.95, Avg(φ) ≥ 0.95, "
      "Avg(RR) ≤ 3 (paper 0.998, 0.975, 2.3)",
      [](const Table3& t) {
        const std::size_t r = 1 * 3 + 1;
        return ClaimCheck{t.jain[r] >= 0.95 && t.phi[r] >= 0.95 && t.rr[r] <= 3,
                          list("Avg(J)/Avg(φ)/Avg(RR)", {t.jain[r], t.phi[r], t.rr[r]},
                               "%.3f")};
      }));

  // Beyond the paper: the §6 future-work studies around BBRv1 vs CUBIC
  // through a 2-BDP FIFO at 500M, and design-choice ablations (DESIGN.md §6).
  Cells rtt(5, study_cell(kBbrV1, kCubic));
  for (std::size_t i = 0; i < rtt.size(); ++i) {
    rtt[i].rtt = sim::Time::milliseconds(std::vector{10, 30, 62, 120, 240}[i]);
  }
  out.push_back(over("rtt.bbr1_unfairness_peaks_at_62ms",
                     "RTT sweep 10–240 ms: BBRv1-vs-CUBIC J is lowest at the paper's 62 ms "
                     "and relaxes toward J ≈ 1 (≥ 0.9) at 240 ms",
                     rtt, "J at 10/30/62/120/240 ms", jain,
                     [](const Values& j) { return min(j) == j[2] && j[4] >= 0.9; }));
  const auto lossy = [](cca::CcaKind k, double loss) {
    ExperimentConfig cfg = study_cell(k, k);
    cfg.random_loss = loss;
    return cfg;
  };
  out.push_back(over("loss.collapse_at_1pct",
                     "1% injected random loss: H-TCP, Reno and CUBIC collapse (utilization "
                     "≤ 0.6) while BBRv1 holds ≥ 0.95",
                     {lossy(kHtcp, 0.01), lossy(kReno, 0.01), lossy(kCubic, 0.01),
                      lossy(kBbrV1, 0.01)},
                     "util htcp/reno/cubic/bbr1", util, [](const Values& u) {
                       return std::max({u[0], u[1], u[2]}) <= 0.6 && u[3] >= 0.95;
                     }));
  out.push_back(every_cell("red_fix.adaptive_red_and_pie_full",
                           "Fixing RED: Adaptive RED and PIE hold CUBIC's utilization ≥ 0.98 "
                           "at 1G, 10G and 25G, 2 BDP",
                           make_matrix({{kCubic, kCubic}}, {kRedAdaptive, kPie}, {2}, high_bws),
                           "util", util, 0.98, 1.5));
  Cells flap(3, study_cell(kBbrV1, kCubic));
  const double run_s = flap[0].effective_duration().sec();
  for (std::size_t i = 1; i < 3; ++i) {
    flap[i].fault_plan = fault::FaultPlan::link_flap(sim::Time::seconds(run_s / 3),
                                                     sim::Time::seconds(i == 1 ? 0.5 : 2));
  }
  out.push_back({"flap.rtos_rise_and_pipe_refills",
                 "Link flap at a third of the run (none, 0.5 s, 2 s down): RTOs rise with the "
                 "outage, and utilization stays ≥ 0.9 × the link's up share of the run",
                 flap, [run_s](Results rs) {
                   const Values rtos = map(rs, [](const AveragedResult& r) { return r.rtos; });
                   const Values u = map(rs, util);
                   const bool holds = std::is_sorted(rtos.begin(), rtos.end()) &&
                                      rtos[2] > rtos[0] && u[1] >= 0.9 * (1 - 0.5 / run_s) &&
                                      u[2] >= 0.9 * (1 - 2 / run_s);
                   return ClaimCheck{holds,
                                     list("rtos", rtos, "%.0f") + "; " + list("util", u)};
                 }});
  Cells bursty = {lossy(kReno, 0.003), study_cell(kReno, kReno), lossy(kCubic, 0.003),
                  study_cell(kCubic, kCubic)};
  bursty[1].ge_loss = bursty[3].ge_loss = fault::GilbertElliottParams::from_loss(0.003, 20);
  out.push_back(over("bursty.gilbert_elliott_gentler",
                     "Gilbert–Elliott loss (mean 20-packet bursts) leaves Reno and CUBIC more "
                     "utilization than Bernoulli loss at the same 0.3% rate",
                     bursty, "util Bernoulli/GE reno/reno/cubic/cubic", util,
                     [](const Values& u) { return u[1] > u[0] && u[3] > u[2]; }));
  Cells abl(6, study_cell(kBbrV1, kCubic));
  abl[1].pace_all = true;
  abl[2].aqm = kCodel;
  abl[3].aqm = kFqCodel;
  abl[4].cca1 = abl[5].cca1 = kBbrV2;
  abl[4].aqm = abl[5].aqm = kRed;
  abl[5].ecn = true;
  out.push_back(over("ablation.pacing_keeps_winner",
                     "Pacing loss-based CCAs at 2·cwnd/srtt leaves the BBRv1-vs-CUBIC winner",
                     {abl[0], abl[1]}, "bbr1 share ack-clocked/paced", share,
                     [](const Values& s) { return (s[0] > 0.5) == (s[1] > 0.5); }));
  out.push_back(over("ablation.fair_queuing_not_codel",
                     "Fair queuing, not the CoDel drop law, makes FQ-CoDel fair: BBRv1 vs "
                     "CUBIC J ≥ 0.95 under FQ-CoDel, < 0.9 under plain CoDel",
                     {abl[2], abl[3]}, "J codel/fq_codel", jain,
                     [](const Values& j) { return j[0] < 0.9 && j[1] >= 0.95; }));
  out.push_back(over("ablation.ecn_cuts_red_retx",
                     "ECN on RED cuts retransmissions (BBRv2 vs CUBIC)", {abl[4], abl[5]},
                     "retx ECN off/on", retx, [](const Values& r) { return r[1] < r[0]; },
                     "%.0f"));
  Cells agg(4, study_cell(kCubic, kCubic));
  for (std::uint32_t i = 0; i < agg.size(); ++i) {
    agg[i].bottleneck_bps = 1e9;
    agg[i].aggregation = 1u << i;
  }
  out.push_back({"ablation.aggregation_insensitive_1g",
                 "CUBIC vs CUBIC at 1G: J and utilization at 2, 4 and 8 segments per unit "
                 "within 0.05 of per-segment simulation",
                 agg, [](Results rs) {
                   const Values j = map(rs, jain), u = map(rs, util);
                   return ClaimCheck{max(j) - min(j) <= 0.05 && max(u) - min(u) <= 0.05,
                                     list("agg 1/2/4/8: J", j) + "; " + list("util", u)};
                 }});

  // Beyond the paper: 40 CUBIC mice among each X-vs-CUBIC elephant pair,
  // 100M, 1 BDP, 40 s; cells run pair-major (kCcas order), then FIFO,
  // FQ-CoDel, RED.
  std::vector<std::pair<cca::CcaKind, cca::CcaKind>> vs_cubic;
  for (const cca::CcaKind k : kCcas) vs_cubic.emplace_back(k, kCubic);
  Cells mice = make_matrix(vs_cubic, {kFifo, kFqCodel, kRed}, {1}, {100e6});
  for (ExperimentConfig& cfg : mice) {
    cfg.duration = sim::Time::seconds(40);
    cfg.workload = workload::WorkloadSpec::mice_elephants();
  }
  const auto p50 = [](Results rs, std::size_t a) {
    return map(
        rs, [](const AveragedResult& r) { return traffic_class(r, "mice").fct_p50_s * 1e3; },
        a, 0, 3);
  };
  const std::string mice_p50 = "mice p50 ms " + ccas;
  out.push_back(over("mice.all_complete", "All 40 mice complete in every elephant pair and AQM",
                     mice, "mice left undone", [](const AveragedResult& r) {
                       const ClassResult& m = traffic_class(r, "mice");
                       return m.flows > 0 ? m.flows - m.completed : 1.0;
                     },
                     [](const Values& left) { return max(left) == 0; }, "%.0f"));
  out.push_back({"mice.fifo_bbr1_worst_neighbour",
                 "FIFO: mice behind BBRv1 vs CUBIC wait ≥ 2× longer (p50 FCT) than behind any "
                 "loss-based pair",
                 mice, [=](Results rs) {
                   const Values p = p50(rs, 0);
                   return ClaimCheck{p[0] >= 2 * std::max({p[2], p[3], p[4]}),
                                     list(mice_p50, p, "%.0f")};
                 }});
  out.push_back({"mice.fq_codel_isolates",
                 "FQ-CoDel isolates the mice: p50 FCT within 10% across all pairs, and below "
                 "FIFO's for each",
                 mice, [=](Results rs) {
                   const Values p = p50(rs, 1), fifo = p50(rs, 0);
                   bool holds = max(p) <= 1.1 * min(p);
                   for (std::size_t k = 0; k < p.size(); ++k) holds = holds && p[k] < fifo[k];
                   return ClaimCheck{holds, list(mice_p50, p, "%.0f")};
                 }});
  out.push_back({"mice.red_in_between",
                 "RED: each pair's mice p50 FCT lies between its FQ-CoDel and FIFO values, "
                 "BBRv1 vs CUBIC is the worst neighbour, its elephants' J ≤ 0.7 as in Fig. 5",
                 mice, [=](Results rs) {
                   const Values p = p50(rs, 2), fq = p50(rs, 1), fifo = p50(rs, 0);
                   const double j = traffic_class(rs[2], "elephants").jain;
                   bool holds = max(p) == p[0] && j <= 0.7;
                   for (std::size_t k = 0; k < p.size(); ++k) {
                     holds = holds && fq[k] <= p[k] && p[k] <= fifo[k];
                   }
                   return ClaimCheck{holds, list(mice_p50, p, "%.0f") + "; " +
                                                list("bbr1 elephant J", {j})};
                 }});
  return out;
}

std::string ClaimRow::mark() const {
  if (held == seeds) return "✅";
  if (held == 0) return "❌";
  return "🟡 " + std::to_string(held) + " of " + std::to_string(seeds);
}

ClaimRow vote(const Claim& claim, const std::vector<ClaimCheck>& per_seed) {
  ClaimRow row{claim.id, claim.wording, {}};
  row.seeds = static_cast<int>(per_seed.size());
  for (const ClaimCheck& c : per_seed) {
    row.held += c.holds ? 1 : 0;
    row.values.push_back(c.values);
  }
  return row;
}

std::vector<std::vector<AveragedResult>> run_seeds(const Cells& cells, int reps, int threads) {
  if (reps < 1) throw std::invalid_argument("reps must be >= 1, got " + std::to_string(reps));
  Cells runs;
  for (const ExperimentConfig& cell : cells) {
    for (int r = 0; r < reps; ++r) {
      runs.push_back(cell);
      runs.back().seed = sim::derive_seed(cell.seed, static_cast<std::uint64_t>(r));
    }
  }
  SweepOptions opts;
  opts.threads = threads;
  opts.manifest_path = default_journal_path();
  opts.resume = true;
  opts.on_result = [](const AveragedResult&, std::size_t done, std::size_t total) {
    std::fprintf(stderr, "\r%zu/%zu runs%s", done, total, done == total ? "\n" : "");
  };
  const SweepReport report = run_sweep_resilient(runs, opts);
  std::vector<std::vector<AveragedResult>> out(cells.size());
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const RunRecord& rec = report.records[k];
    if (!rec.success()) {
      throw std::runtime_error(runs[k].id() + ": " + to_string(rec.status) + ": " + rec.error);
    }
    out[k / reps].push_back(rec.result);
  }
  return out;
}

std::vector<ClaimRow> run_claims(const std::vector<Claim>& claims, int reps, int threads) {
  // Claims share cells, and the sweep refuses a run id listed twice.
  Cells cells;
  std::unordered_map<std::string, std::size_t> index;
  for (const Claim& claim : claims) {
    for (const ExperimentConfig& cell : claim.cells) {
      if (index.emplace(cell.id(), cells.size()).second) cells.push_back(cell);
    }
  }
  const std::vector<std::vector<AveragedResult>> results = run_seeds(cells, reps, threads);
  std::vector<ClaimRow> rows;
  for (const Claim& claim : claims) {
    std::vector<ClaimCheck> per_seed;
    for (int r = 0; r < reps; ++r) {
      std::vector<AveragedResult> seed;
      for (const ExperimentConfig& cell : claim.cells) {
        seed.push_back(results[index.at(cell.id())][r]);
      }
      per_seed.push_back(claim.check(seed));
    }
    rows.push_back(vote(claim, per_seed));
  }
  return rows;
}

std::string render_claims_markdown(const std::vector<ClaimRow>& rows, int reps) {
  std::string out;
  obs::appendf(&out,
               "# Paper claims ledger\n\nGenerated by `elephant claims --reps %d` at "
               "duration scale %g. Each claim is checked on each seed's results: ✅ holds on "
               "every seed, ❌ on none, 🟡 on some. Values are per seed, separated by ‖; "
               "five-number lists run 100M/500M/1G/10G/25G.\n\n"
               "| id | claim | values | seeds | mark |\n"
               "|---|---|---|---|---|\n",
               reps, duration_scale());
  for (const ClaimRow& row : rows) {
    std::string values;
    for (const std::string& v : row.values) values += (values.empty() ? "" : " ‖ ") + v;
    obs::appendf(&out, "| %s | %s | %s | %d of %d | %s |\n", row.id.c_str(),
                 row.wording.c_str(), values.c_str(), row.held, row.seeds, row.mark().c_str());
  }
  return out;
}

}  // namespace elephant::exp
