#include "balance/solver.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "support/error.hpp"

namespace scmd {

namespace {

/// The field's entries decoded to lattice coordinates, in ascending index
/// order — decoded once per solve, then swept by every pass.
struct Sites {
  Int3 res;
  std::vector<Int3> at;
  std::vector<double> value;
};

Sites decode(const CostField& cost) {
  Sites s;
  s.res = cost.res();
  s.at.reserve(cost.entries().size());
  s.value.reserve(cost.entries().size());
  for (const CostEntry& e : cost.entries()) {
    const std::int64_t row = e.index / s.res.x;
    s.at.push_back({static_cast<int>(e.index % s.res.x),
                    static_cast<int>(row % s.res.y),
                    static_cast<int>(row / s.res.y)});
    s.value.push_back(e.value);
  }
  return s;
}

/// Part index of every coordinate along one axis of `res` slabs (-1
/// outside the cuts).
std::vector<int> part_of(const std::vector<int>& cuts, int res) {
  std::vector<int> q(static_cast<std::size_t>(res), -1);
  if (cuts.empty()) return q;
  SCMD_REQUIRE(cuts.front() >= 0 && cuts.back() <= res,
               "cuts must lie on the fine lattice");
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i)
    for (int v = cuts[i]; v < cuts[i + 1]; ++v)
      q[static_cast<std::size_t>(v)] = static_cast<int>(i);
  return q;
}

double evaluate(const Sites& s, const std::array<std::vector<int>, 3>& cuts) {
  std::array<std::vector<int>, 3> part;
  std::array<std::size_t, 3> n{};
  for (std::size_t a = 0; a < 3; ++a) {
    part[a] = part_of(cuts[a], s.res[static_cast<int>(a)]);
    n[a] = cuts[a].empty() ? 0 : cuts[a].size() - 1;
  }
  // Part totals in (k,j,i) order, each summed over its entries in
  // ascending index order — the terms and order of a dense sweep.
  std::vector<double> w(n[0] * n[1] * n[2], 0.0);
  for (std::size_t e = 0; e < s.at.size(); ++e) {
    const int i = part[0][static_cast<std::size_t>(s.at[e].x)];
    const int j = part[1][static_cast<std::size_t>(s.at[e].y)];
    const int k = part[2][static_cast<std::size_t>(s.at[e].z)];
    if (i < 0 || j < 0 || k < 0) continue;
    w[(static_cast<std::size_t>(k) * n[1] + static_cast<std::size_t>(j)) *
          n[0] +
      static_cast<std::size_t>(i)] += s.value[e];
  }
  double mx = 0.0, sum = 0.0;
  for (const double p : w) {
    mx = std::max(mx, p);
    sum += p;
  }
  if (sum <= 0.0) return 1.0;
  return mx / (sum / static_cast<double>(w.size()));
}

}  // namespace

double evaluate_cuts(const CostField& cost,
                     const std::array<std::vector<int>, 3>& cuts) {
  return evaluate(decode(cost), cuts);
}

std::array<AxisWidthLimits, 3> width_limits_for(
    const Int3& res, const std::vector<GridReach>& grids) {
  std::array<AxisWidthLimits, 3> out;
  for (int a = 0; a < 3; ++a) {
    AxisWidthLimits& lim = out[static_cast<std::size_t>(a)];
    lim.at_lo.assign(static_cast<std::size_t>(res[a]) + 1, 1);
    lim.at_hi.assign(static_cast<std::size_t>(res[a]) + 1, 1);
    for (const GridReach& g : grids) {
      SCMD_REQUIRE(g.dims[a] >= 1 && res[a] % g.dims[a] == 0,
                   "fine resolution must be a multiple of every grid "
                   "dimension");
      const int s = res[a] / g.dims[a];
      for (int u = 0; u <= res[a]; ++u) {
        // The part below cut u owns cells up to ceil(u/s); its upward
        // ghost reach past u is the straddle remainder plus the halo.
        const int up = (s - u % s) % s + g.halo_hi[a] * s;
        // The part above cut u owns cells down to floor(u/s); downward
        // reach past u is u's offset inside its cell plus the halo.
        const int down = u % s + g.halo_lo[a] * s;
        auto& lo = lim.at_lo[static_cast<std::size_t>(u)];
        auto& hi = lim.at_hi[static_cast<std::size_t>(u)];
        lo = std::max(lo, up);
        hi = std::max(hi, down);
      }
    }
  }
  return out;
}

std::vector<int> solve_axis(const std::vector<std::vector<double>>& M,
                            int num_parts, const AxisWidthLimits& limits) {
  const int C = static_cast<int>(M.size());
  const int Q = static_cast<int>(M.empty() ? 0 : M[0].size());
  SCMD_REQUIRE(num_parts >= 1, "need at least one part");
  if (C < num_parts) return {};  // axis shorter than parts: infeasible
  SCMD_REQUIRE(static_cast<int>(limits.at_lo.size()) == C + 1 &&
                   static_cast<int>(limits.at_hi.size()) == C + 1,
               "width limits must cover every cut position");
  // Prefix sums per column make part costs O(Q).
  std::vector<std::vector<double>> pre(
      static_cast<std::size_t>(C) + 1,
      std::vector<double>(static_cast<std::size_t>(Q), 0.0));
  for (int c = 0; c < C; ++c)
    for (int q = 0; q < Q; ++q)
      pre[static_cast<std::size_t>(c) + 1][static_cast<std::size_t>(q)] =
          pre[static_cast<std::size_t>(c)][static_cast<std::size_t>(q)] +
          M[static_cast<std::size_t>(c)][static_cast<std::size_t>(q)];
  auto part_cost = [&](int a, int b) {
    double best = 0.0;
    for (int q = 0; q < Q; ++q)
      best = std::max(
          best, pre[static_cast<std::size_t>(b)][static_cast<std::size_t>(q)] -
                    pre[static_cast<std::size_t>(a)]
                       [static_cast<std::size_t>(q)]);
    return best;
  };
  auto min_width = [&](int a, int c) {
    return std::max({1, limits.at_lo[static_cast<std::size_t>(a)],
                     limits.at_hi[static_cast<std::size_t>(c)]});
  };

  // dp[p][c]: best achievable max part cost splitting slabs [0, c) into p
  // admissible parts.
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dp(
      static_cast<std::size_t>(num_parts) + 1,
      std::vector<double>(static_cast<std::size_t>(C) + 1, kInf));
  std::vector<std::vector<int>> arg(
      static_cast<std::size_t>(num_parts) + 1,
      std::vector<int>(static_cast<std::size_t>(C) + 1, -1));
  dp[0][0] = 0.0;
  for (int p = 1; p <= num_parts; ++p) {
    for (int c = p; c <= C; ++c) {
      for (int a = p - 1; a < c; ++a) {
        const double prev =
            dp[static_cast<std::size_t>(p) - 1][static_cast<std::size_t>(a)];
        if (prev == kInf) continue;
        if (c - a < min_width(a, c)) continue;
        const double v = std::max(prev, part_cost(a, c));
        if (v < dp[static_cast<std::size_t>(p)][static_cast<std::size_t>(c)]) {
          dp[static_cast<std::size_t>(p)][static_cast<std::size_t>(c)] = v;
          arg[static_cast<std::size_t>(p)][static_cast<std::size_t>(c)] = a;
        }
      }
    }
  }
  if (dp[static_cast<std::size_t>(num_parts)][static_cast<std::size_t>(C)] ==
      kInf)
    return {};  // no admissible split
  std::vector<int> cuts(static_cast<std::size_t>(num_parts) + 1);
  cuts[static_cast<std::size_t>(num_parts)] = C;
  for (int p = num_parts; p >= 1; --p) {
    const int c = cuts[static_cast<std::size_t>(p)];
    cuts[static_cast<std::size_t>(p) - 1] =
        arg[static_cast<std::size_t>(p)][static_cast<std::size_t>(c)];
  }
  return cuts;
}

namespace {

/// Per-axis DP seed + coordinate-descent refinement for one factorization;
/// predicted_ratio stays < 0 when the factorization is infeasible.
BalanceSolution solve_for_pgrid(const Sites& sites, const Int3& pd,
                                const std::array<AxisWidthLimits, 3>& limits) {
  const Int3& res = sites.res;
  BalanceSolution sol;
  sol.pgrid_dims = pd;

  // Seed each axis from its 1-D marginal (one cross column).
  for (int a = 0; a < 3; ++a) {
    std::vector<std::vector<double>> M(static_cast<std::size_t>(res[a]),
                                       std::vector<double>(1, 0.0));
    for (std::size_t e = 0; e < sites.at.size(); ++e)
      M[static_cast<std::size_t>(sites.at[e][a])][0] += sites.value[e];
    auto cuts = solve_axis(M, pd[a], limits[static_cast<std::size_t>(a)]);
    if (cuts.empty()) return sol;  // infeasible
    sol.cuts[static_cast<std::size_t>(a)] = std::move(cuts);
  }

  double best = evaluate(sites, sol.cuts);
  for (int iter = 0; iter < 30; ++iter) {
    bool improved = false;
    for (int a = 0; a < 3; ++a) {
      // Rebuild this axis' slab-by-column matrix against the other two
      // axes' current cuts, then re-solve the axis exactly.
      const int b1 = (a + 1) % 3, b2 = (a + 2) % 3;
      const std::vector<int> q1 =
          part_of(sol.cuts[static_cast<std::size_t>(b1)], res[b1]);
      const std::vector<int> q2 =
          part_of(sol.cuts[static_cast<std::size_t>(b2)], res[b2]);
      const int P2 = pd[b2];
      std::vector<std::vector<double>> M(
          static_cast<std::size_t>(res[a]),
          std::vector<double>(static_cast<std::size_t>(pd[b1]) * P2, 0.0));
      for (std::size_t e = 0; e < sites.at.size(); ++e) {
        const Int3& at = sites.at[e];
        M[static_cast<std::size_t>(at[a])]
         [static_cast<std::size_t>(q1[static_cast<std::size_t>(at[b1])]) *
              P2 +
          q2[static_cast<std::size_t>(at[b2])]] += sites.value[e];
      }
      auto axis_cuts =
          solve_axis(M, pd[a], limits[static_cast<std::size_t>(a)]);
      if (axis_cuts.empty()) continue;
      auto trial = sol.cuts;
      trial[static_cast<std::size_t>(a)] = std::move(axis_cuts);
      const double r = evaluate(sites, trial);
      if (r < best - 1e-12) {
        best = r;
        sol.cuts = trial;
        improved = true;
      }
    }
    if (!improved) break;
  }
  sol.predicted_ratio = best;
  return sol;
}

}  // namespace

BalanceSolution solve_balanced_cuts(
    const CostField& cost, int num_ranks,
    const std::array<AxisWidthLimits, 3>& limits) {
  SCMD_REQUIRE(num_ranks >= 1, "need at least one rank");
  const Sites sites = decode(cost);
  BalanceSolution best;
  for (int px = 1; px <= num_ranks; ++px) {
    if (num_ranks % px) continue;
    const int rest = num_ranks / px;
    for (int py = 1; py <= rest; ++py) {
      if (rest % py) continue;
      const int pz = rest / py;
      const BalanceSolution s =
          solve_for_pgrid(sites, Int3{px, py, pz}, limits);
      if (s.predicted_ratio < 0.0) continue;
      if (best.predicted_ratio < 0.0 ||
          s.predicted_ratio < best.predicted_ratio)
        best = s;
    }
  }
  return best;
}

}  // namespace scmd
