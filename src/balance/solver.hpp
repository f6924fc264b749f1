#pragma once

/// \file solver.hpp
/// Cost-driven non-uniform decomposition solver.
///
/// Input: a measured cost density on a fine lattice (see CostField) and a
/// rank count.  Output: a process-grid factorization plus per-axis cut
/// planes (tensor-product bricks, so the forwarded halo exchange keeps
/// working) minimizing the predicted max/mean per-rank cost ratio.  Every
/// pass over the density visits its nonzero entries only, in ascending
/// index order, so a solve costs O(entries) per pass plus the per-axis
/// DPs — never O(lattice volume).
///
/// Per axis, the optimal cuts for fixed other-axis cuts solve a
/// 1-D partition problem: minimize over cut positions the maximum, over
/// this axis' parts and the other axes' rank columns, of the summed cost
/// — an exact dynamic program over fine-lattice slabs.  Axes are relaxed
/// round-robin (coordinate descent) until no axis improves, and every
/// 3-factorization of the rank count is tried, because the best cut
/// topology depends on the density's shape (a half-dense box wants more
/// ranks along the split axis than a cubic factorization provides).

#include <array>
#include <vector>

#include "balance/cost_field.hpp"
#include "geom/int3.hpp"

namespace scmd {

/// A candidate decomposition for `pgrid_dims` ranks: cuts[a] holds
/// pgrid_dims[a] + 1 fine-lattice cut indices (first 0, last res[a],
/// strictly increasing).
struct BalanceSolution {
  Int3 pgrid_dims{1, 1, 1};
  std::array<std::vector<int>, 3> cuts;
  /// Predicted max/mean cost ratio of the cuts; < 0 when no feasible
  /// solution exists (min widths cannot be met).
  double predicted_ratio = -1.0;
};

/// Max/mean per-rank cost of a tensor-product decomposition of `cost`;
/// cuts[a] lie in [0, cost.res()[a]].  Part totals are summed in (k,j,i)
/// part order, each over its entries in ascending index order.
double evaluate_cuts(const CostField& cost,
                     const std::array<std::vector<int>, 3>& cuts);

/// Minimum part widths as a function of the part's own cut positions —
/// the exact halo-feasibility condition of the staged exchange
/// (HaloExchange::validate_slabs), which is local to each part: a part
/// [a, c) must be wide enough that (1) its lower neighbor's upward ghost
/// reach past cut a fits inside it and (2) its upper neighbor's downward
/// reach past cut c fits inside it.  Both reaches depend only on the cut
/// position (how far it sits from a cell boundary) and the grids' halo
/// margins, so they precompute to per-position arrays.
struct AxisWidthLimits {
  std::vector<int> at_lo;  ///< size res+1: part starting at cut u needs
                           ///< width >= at_lo[u]
  std::vector<int> at_hi;  ///< size res+1: part ending at cut u needs
                           ///< width >= at_hi[u]
};

/// One cell grid's per-axis reach parameters: `dims` cell counts and the
/// *effective* halo margins (pattern halo plus home-range root extension,
/// in cells) the exchange must cover below/above each brick.
struct GridReach {
  Int3 dims;
  Int3 halo_lo;
  Int3 halo_hi;
};

/// Exact width limits for cut positions on the fine lattice.  Each grid's
/// dims must divide the fine resolution per axis.
std::array<AxisWidthLimits, 3> width_limits_for(
    const Int3& res, const std::vector<GridReach>& grids);

/// Optimal cuts for one axis with the other two fixed (exact DP).
/// `M[s][q]` is the cost of fine slab s restricted to cross-axis rank
/// column q; a part [a, c) is admissible when
///   c - a >= max(1, limits.at_lo[a], limits.at_hi[c]).
/// Returns an empty vector when no admissible split exists.
std::vector<int> solve_axis(const std::vector<std::vector<double>>& M,
                            int num_parts, const AxisWidthLimits& limits);

/// Best decomposition of `num_ranks` ranks over the cost field:
/// enumerate factorizations, per-axis DP + coordinate descent for each,
/// return the lowest predicted ratio.
BalanceSolution solve_balanced_cuts(
    const CostField& cost, int num_ranks,
    const std::array<AxisWidthLimits, 3>& limits);

}  // namespace scmd
