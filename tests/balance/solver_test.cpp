// Cut solver: exact axis DP, halo-feasibility width limits, and the
// factorization sweep that picks the process-grid shape.  The solver
// sweeps a sparse field; a dense reference solver kept here as the
// oracle must produce the same cuts and ratios bit for bit.

#include "balance/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "geom/box.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace scmd {
namespace {

std::vector<double> uniform_field(const Int3& res, double v) {
  return std::vector<double>(static_cast<std::size_t>(res.volume()), v);
}

/// Sparse field holding the nonzero bins of a dense [z][y][x] array.
CostField sparse_of(const std::vector<double>& dense, const Int3& res) {
  CostField field(Box::cubic(1.0), res);
  std::vector<CostEntry> batch;
  for (std::size_t i = 0; i < dense.size(); ++i)
    if (dense[i] != 0.0)
      batch.push_back({static_cast<std::int64_t>(i), dense[i]});
  field.add(std::move(batch));
  return field;
}

// ---- Dense reference: every pass sweeps the whole lattice. ----

std::size_t idx3(const Int3& res, int x, int y, int z) {
  return (static_cast<std::size_t>(z) * res.y + y) * res.x + x;
}

int axis_of(int a, int x, int y, int z) {
  return a == 0 ? x : a == 1 ? y : z;
}

double dense_evaluate(const std::vector<double>& cost, const Int3& res,
                      const std::array<std::vector<int>, 3>& cuts) {
  double mx = 0.0, sum = 0.0;
  long long parts = 0;
  for (std::size_t k = 0; k + 1 < cuts[2].size(); ++k) {
    for (std::size_t j = 0; j + 1 < cuts[1].size(); ++j) {
      for (std::size_t i = 0; i + 1 < cuts[0].size(); ++i) {
        double w = 0.0;
        for (int z = cuts[2][k]; z < cuts[2][k + 1]; ++z)
          for (int y = cuts[1][j]; y < cuts[1][j + 1]; ++y)
            for (int x = cuts[0][i]; x < cuts[0][i + 1]; ++x)
              w += cost[idx3(res, x, y, z)];
        mx = std::max(mx, w);
        sum += w;
        ++parts;
      }
    }
  }
  if (sum <= 0.0) return 1.0;
  return mx / (sum / static_cast<double>(parts));
}

BalanceSolution dense_solve_for_pgrid(
    const std::vector<double>& cost, const Int3& res, const Int3& pd,
    const std::array<AxisWidthLimits, 3>& limits) {
  BalanceSolution sol;
  sol.pgrid_dims = pd;
  for (int a = 0; a < 3; ++a) {
    std::vector<std::vector<double>> M(static_cast<std::size_t>(res[a]),
                                       std::vector<double>(1, 0.0));
    for (int z = 0; z < res.z; ++z)
      for (int y = 0; y < res.y; ++y)
        for (int x = 0; x < res.x; ++x)
          M[static_cast<std::size_t>(axis_of(a, x, y, z))][0] +=
              cost[idx3(res, x, y, z)];
    auto cuts = solve_axis(M, pd[a], limits[static_cast<std::size_t>(a)]);
    if (cuts.empty()) return sol;
    sol.cuts[static_cast<std::size_t>(a)] = std::move(cuts);
  }
  double best = dense_evaluate(cost, res, sol.cuts);
  for (int iter = 0; iter < 30; ++iter) {
    bool improved = false;
    for (int a = 0; a < 3; ++a) {
      const int b1 = (a + 1) % 3, b2 = (a + 2) % 3;
      const std::vector<int>& c1 = sol.cuts[static_cast<std::size_t>(b1)];
      const std::vector<int>& c2 = sol.cuts[static_cast<std::size_t>(b2)];
      auto part_of = [](const std::vector<int>& cuts, int v) {
        int q = 0;
        while (v >= cuts[static_cast<std::size_t>(q) + 1]) ++q;
        return q;
      };
      std::vector<std::vector<double>> M(
          static_cast<std::size_t>(res[a]),
          std::vector<double>(static_cast<std::size_t>(pd[b1]) * pd[b2],
                              0.0));
      for (int z = 0; z < res.z; ++z)
        for (int y = 0; y < res.y; ++y)
          for (int x = 0; x < res.x; ++x)
            M[static_cast<std::size_t>(axis_of(a, x, y, z))]
             [static_cast<std::size_t>(part_of(c1, axis_of(b1, x, y, z))) *
                  static_cast<std::size_t>(pd[b2]) +
              static_cast<std::size_t>(part_of(c2, axis_of(b2, x, y, z)))] +=
                cost[idx3(res, x, y, z)];
      auto axis_cuts =
          solve_axis(M, pd[a], limits[static_cast<std::size_t>(a)]);
      if (axis_cuts.empty()) continue;
      auto trial = sol.cuts;
      trial[static_cast<std::size_t>(a)] = std::move(axis_cuts);
      const double r = dense_evaluate(cost, res, trial);
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

BalanceSolution dense_solve(const std::vector<double>& cost, const Int3& res,
                            int num_ranks,
                            const std::array<AxisWidthLimits, 3>& limits) {
  BalanceSolution best;
  for (int px = 1; px <= num_ranks; ++px) {
    if (num_ranks % px) continue;
    const int rest = num_ranks / px;
    for (int py = 1; py <= rest; ++py) {
      if (rest % py) continue;
      const BalanceSolution s = dense_solve_for_pgrid(
          cost, res, Int3{px, py, rest / py}, limits);
      if (s.predicted_ratio < 0.0) continue;
      if (best.predicted_ratio < 0.0 ||
          s.predicted_ratio < best.predicted_ratio)
        best = s;
    }
  }
  return best;
}

AxisWidthLimits unit_limits(int res) {
  AxisWidthLimits lim;
  lim.at_lo.assign(static_cast<std::size_t>(res) + 1, 1);
  lim.at_hi.assign(static_cast<std::size_t>(res) + 1, 1);
  return lim;
}

TEST(SolverTest, EvaluateCutsUniformFieldIsPerfectlyBalanced) {
  const Int3 res{4, 4, 4};
  const std::array<std::vector<int>, 3> cuts{
      std::vector<int>{0, 2, 4}, std::vector<int>{0, 2, 4},
      std::vector<int>{0, 4}};
  EXPECT_DOUBLE_EQ(evaluate_cuts(sparse_of(uniform_field(res, 1.0), res), cuts),
                   1.0);
}

TEST(SolverTest, EvaluateCutsSeesSkew) {
  const Int3 res{4, 1, 1};
  std::vector<double> cost{3.0, 1.0, 1.0, 1.0};
  const std::array<std::vector<int>, 3> cuts{
      std::vector<int>{0, 2, 4}, std::vector<int>{0, 1},
      std::vector<int>{0, 1}};
  // Parts hold 4 and 2; mean 3 -> ratio 4/3.
  EXPECT_DOUBLE_EQ(evaluate_cuts(sparse_of(cost, res), cuts), 4.0 / 3.0);
}

TEST(SolverTest, SolveAxisSplitsUniformCostEqually) {
  std::vector<std::vector<double>> M(8, std::vector<double>(1, 1.0));
  const std::vector<int> cuts = solve_axis(M, 4, unit_limits(8));
  EXPECT_EQ(cuts, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(SolverTest, SolveAxisMovesCutsTowardTheDenseEnd) {
  // Slab costs 4,4,1,1,1,1,1,1.  Cutting at 2 gives parts 8 and 6
  // (max 8); any other cut is worse (cut 1 -> max 10, cut 3 -> max 9),
  // so the DP must place the cut right after the dense slabs.
  std::vector<std::vector<double>> M(8, std::vector<double>(1, 1.0));
  M[0][0] = 4.0;
  M[1][0] = 4.0;
  const std::vector<int> cuts = solve_axis(M, 2, unit_limits(8));
  EXPECT_EQ(cuts, (std::vector<int>{0, 2, 8}));
}

TEST(SolverTest, SolveAxisReturnsEmptyWhenInfeasible) {
  std::vector<std::vector<double>> M(3, std::vector<double>(1, 1.0));
  EXPECT_TRUE(solve_axis(M, 4, unit_limits(3)).empty());

  // Width limits that cannot be met: 4 parts x min width 3 > 8 slabs.
  std::vector<std::vector<double>> M8(8, std::vector<double>(1, 1.0));
  AxisWidthLimits wide = unit_limits(8);
  for (auto& v : wide.at_lo) v = 3;
  EXPECT_TRUE(solve_axis(M8, 4, wide).empty());
  EXPECT_FALSE(solve_axis(M8, 2, wide).empty());
}

TEST(SolverTest, SolveAxisRespectsPerPositionWidthLimits) {
  std::vector<std::vector<double>> M(8, std::vector<double>(1, 1.0));
  AxisWidthLimits lim = unit_limits(8);
  // A part starting at cut 2 must be at least 4 wide; the equal split
  // {0,2,4,6,8} violates that, so the DP must route around it.
  lim.at_lo[2] = 4;
  const std::vector<int> cuts = solve_axis(M, 4, lim);
  ASSERT_EQ(cuts.size(), 5u);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const int a = cuts[i], c = cuts[i + 1];
    EXPECT_GE(c - a, lim.at_lo[static_cast<std::size_t>(a)]) << "part " << i;
    EXPECT_GE(c - a, lim.at_hi[static_cast<std::size_t>(c)]) << "part " << i;
  }
}

TEST(SolverTest, WidthLimitsMatchTheStraddleFormula) {
  // One grid of 12 cells on a 48-lattice (s = 4), symmetric 1-cell halo.
  GridReach g;
  g.dims = {12, 12, 12};
  g.halo_lo = {1, 1, 1};
  g.halo_hi = {1, 1, 1};
  const auto limits = width_limits_for({48, 48, 48}, {g});
  for (int a = 0; a < 3; ++a) {
    const AxisWidthLimits& lim = limits[static_cast<std::size_t>(a)];
    ASSERT_EQ(lim.at_lo.size(), 49u);
    // On a cell boundary the upward reach is exactly the halo (4 fine
    // units); mid-cell it grows by the straddle remainder.
    EXPECT_EQ(lim.at_lo[0], 4);
    EXPECT_EQ(lim.at_lo[4], 4);
    EXPECT_EQ(lim.at_lo[5], 3 + 4);
    EXPECT_EQ(lim.at_lo[7], 1 + 4);
    EXPECT_EQ(lim.at_hi[0], 4);
    EXPECT_EQ(lim.at_hi[5], 1 + 4);
    EXPECT_EQ(lim.at_hi[7], 3 + 4);
  }
  // The fine lattice must subdivide every grid.
  GridReach bad = g;
  bad.dims = {7, 12, 12};
  EXPECT_THROW(width_limits_for({48, 48, 48}, {bad}), Error);
}

TEST(SolverTest, SolveBalancedCutsFlattensATwoPhaseField) {
  // Dense lower half along x: density 4 vs 1.
  const Int3 res{16, 4, 4};
  std::vector<double> cost(static_cast<std::size_t>(res.volume()));
  for (int z = 0; z < res.z; ++z)
    for (int y = 0; y < res.y; ++y)
      for (int x = 0; x < res.x; ++x)
        cost[static_cast<std::size_t>((z * res.y + y) * res.x + x)] =
            x < 8 ? 4.0 : 1.0;

  std::array<AxisWidthLimits, 3> limits{unit_limits(16), unit_limits(4),
                                        unit_limits(4)};
  const CostField field = sparse_of(cost, res);
  const BalanceSolution sol = solve_balanced_cuts(field, 8, limits);
  ASSERT_GT(sol.predicted_ratio, 0.0);
  EXPECT_LT(sol.predicted_ratio, 1.05);
  EXPECT_EQ(sol.pgrid_dims.volume(), 8);
  EXPECT_DOUBLE_EQ(evaluate_cuts(field, sol.cuts), sol.predicted_ratio);

  // A uniform 2x2x2 split of the same field is 1.6x imbalanced; the
  // solver must beat it decisively.
  const std::array<std::vector<int>, 3> uniform_cuts{
      std::vector<int>{0, 8, 16}, std::vector<int>{0, 2, 4},
      std::vector<int>{0, 2, 4}};
  EXPECT_LT(sol.predicted_ratio, evaluate_cuts(field, uniform_cuts) / 1.4);
}

TEST(SolverTest, SolveBalancedCutsSkipsOverlongFactorizations) {
  // 64 ranks on a 16-lattice: 64x1x1 and 32x2x1 are infeasible and must
  // be skipped, not fatal; 4x4x4 remains.
  const Int3 res{16, 16, 16};
  std::array<AxisWidthLimits, 3> limits{unit_limits(16), unit_limits(16),
                                        unit_limits(16)};
  const BalanceSolution sol =
      solve_balanced_cuts(sparse_of(uniform_field(res, 1.0), res), 64, limits);
  ASSERT_GT(sol.predicted_ratio, 0.0);
  EXPECT_DOUBLE_EQ(sol.predicted_ratio, 1.0);
}

TEST(SolverTest, SparseSolveMatchesTheDenseReferenceExactly) {
  // Random sparse fields on small lattices, with random per-position
  // width limits that make some factorizations — and some whole solves —
  // infeasible.  Even trials spread values over six decades; odd ones
  // draw from a few values whose sums tie or round on the last bit, so a
  // pass that sums in another order than the dense sweep picks other
  // cuts somewhere in the draw.
  const double half_ulp = std::ldexp(1.0, -53);
  const double tie_prone[] = {1.0, 0.5, half_ulp, 3 * half_ulp,
                              1.0 + 2 * half_ulp};
  Rng rng(20261017);
  int feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Int3 res;
    for (int a = 0; a < 3; ++a)
      res[a] = 1 + static_cast<int>(rng.uniform_index(10));
    std::vector<double> dense(static_cast<std::size_t>(res.volume()), 0.0);
    const auto nonzero = rng.uniform_index(dense.size() / 2 + 2);
    for (std::uint64_t e = 0; e < nonzero; ++e)
      dense[rng.uniform_index(dense.size())] =
          trial % 2 ? tie_prone[rng.uniform_index(5)]
                    : rng.uniform() * std::pow(10.0, rng.uniform(-3.0, 3.0));
    const CostField field = sparse_of(dense, res);

    std::array<AxisWidthLimits, 3> limits;
    const int max_width = 1 + static_cast<int>(rng.uniform_index(3));
    for (int a = 0; a < 3; ++a) {
      AxisWidthLimits& lim = limits[static_cast<std::size_t>(a)];
      for (int u = 0; u <= res[a]; ++u) {
        lim.at_lo.push_back(
            1 + static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(max_width))));
        lim.at_hi.push_back(
            1 + static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(max_width))));
      }
    }

    for (const int P : {2, 3, 4, 6, 8}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", P=" +
                   std::to_string(P));
      const BalanceSolution want = dense_solve(dense, res, P, limits);
      const BalanceSolution got = solve_balanced_cuts(field, P, limits);
      EXPECT_EQ(got.predicted_ratio, want.predicted_ratio);
      EXPECT_EQ(got.pgrid_dims, want.pgrid_dims);
      EXPECT_EQ(got.cuts, want.cuts);
      (want.predicted_ratio < 0.0 ? infeasible : feasible) += 1;
      if (want.predicted_ratio > 0.0) {
        EXPECT_EQ(evaluate_cuts(field, want.cuts),
                  dense_evaluate(dense, res, want.cuts));
      }
    }
  }
  // The draw covers both outcomes (752 and 248 of 1000 solves).
  EXPECT_GT(feasible, 500);
  EXPECT_GT(infeasible, 100);
}

TEST(SolverTest, LatticePastTwoToThe31BinsSolvesFromItsEntries) {
  // 1536 x 1536 x 1024 = 2.4G bins: the solve must cost what its few
  // thousand entries and its per-axis DPs cost, not what the lattice
  // holds (a dense field would be 19 GiB).  Dense lower half along x,
  // like a two-phase slab.
  const Int3 res{1536, 1536, 1024};
  CostField field(Box::cubic(1.0), res);
  Rng rng(7);
  std::vector<CostEntry> batch;
  for (int e = 0; e < 4000; ++e) {
    const Int3 at{static_cast<int>(rng.uniform_index(1536)),
                  static_cast<int>(rng.uniform_index(1536)),
                  static_cast<int>(rng.uniform_index(1024))};
    const std::int64_t index =
        (static_cast<std::int64_t>(at.z) * res.y + at.y) * res.x + at.x;
    batch.push_back({index, at.x < 768 ? 4.0 : 1.0});
  }
  field.add(std::move(batch));
  ASSERT_EQ(field.entries().size(), 4000u);
  ASSERT_GT(field.entries().back().index,
            std::numeric_limits<std::int32_t>::max());
  const std::array<AxisWidthLimits, 3> limits{
      unit_limits(res.x), unit_limits(res.y), unit_limits(res.z)};

  const auto start = std::chrono::steady_clock::now();
  const BalanceSolution sol = solve_balanced_cuts(field, 4, limits);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_GT(sol.predicted_ratio, 0.0);
  EXPECT_LT(sol.predicted_ratio, 1.1);
  EXPECT_EQ(sol.pgrid_dims.volume(), 4);
  EXPECT_EQ(evaluate_cuts(field, sol.cuts), sol.predicted_ratio);
  // The DPs dominate: ~0.13 s optimized, ~5 s in the unoptimized
  // sanitizer build.  One sweep over the lattice alone would take
  // seconds optimized and minutes unoptimized.
#ifdef NDEBUG
  EXPECT_LT(seconds, 1.0);
#else
  EXPECT_LT(seconds, 60.0);
#endif
}

}  // namespace
}  // namespace scmd
