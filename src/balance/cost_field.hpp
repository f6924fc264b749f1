#pragma once

/// \file cost_field.hpp
/// Measured work density on a fine lattice — the input of the balancer.
///
/// The load balancer does not model cost: it redistributes the *measured*
/// per-home-cell search work the engines already count (EngineCounters
/// deltas attributed per cell through ForceAccum::cell_cost).  Per-cell
/// enumeration work is decomposition-independent, so per-cell costs sum
/// exactly to rank costs for any candidate decomposition.
///
/// Cut planes live on a fine lattice finer than every cell grid.  To
/// evaluate sub-cell cuts, each cell's cost is apportioned over the
/// chain-start atoms binned in it (the work scales with the number of
/// chains rooted there) and deposited at each atom's fine-lattice bin;
/// cells without start atoms deposit at the cell center so no cost mass
/// is ever dropped.
///
/// The field is sparse: at most one nonzero bin per start atom, against a
/// lattice whose volume follows the lcm of the grid dimensions (millions
/// of bins on coprime grids).  Only nonzero bins are stored, and nothing
/// here allocates or visits res.volume() bins.

#include <cstdint>
#include <vector>

#include "cell/domain.hpp"
#include "geom/int3.hpp"

namespace scmd {

/// One nonzero fine bin: its linear index (z * res.y + y) * res.x + x and
/// its cost.  Also the cost-gather wire record (16 bytes, no padding).
struct CostEntry {
  std::int64_t index;
  double value;
};
static_assert(sizeof(CostEntry) == sizeof(std::int64_t) + sizeof(double),
              "CostEntry goes on the wire as is: no padding bytes");

/// Sparse cost density over a fine lattice spanning the (wrapped) box.
class CostField {
 public:
  /// `res` must be componentwise positive.
  CostField(const Box& box, const Int3& res);

  const Int3& res() const { return res_; }
  const Box& box() const { return box_; }

  /// Nonzero bins in ascending index order, each index once.  Visiting
  /// them in this order adds the same terms in the same order as a dense
  /// [z][y][x] sweep, so sums over the field are bit-identical to it.
  const std::vector<CostEntry>& entries() const { return entries_; }
  double total() const;

  /// Linear index of the fine bin containing wrapped position `p`.
  std::int64_t bin_of(const Vec3& p) const;

  /// Add a batch of deposits.  Per bin they sum after the value already
  /// held, in batch order — the order a dense lattice would accumulate
  /// them in.  Throws scmd::Error for an index outside the lattice or a
  /// negative or non-finite value (the batch may come off the wire).
  void add(std::vector<CostEntry> batch);

  /// Apportion one domain's accumulated per-owned-cell costs (one entry
  /// per owned cell, [z][y][x], as collected by RankEngine/ForceAccum)
  /// over the chain-start atoms of each cell.
  void deposit(const CellDomain& dom,
               const std::vector<std::uint64_t>& cell_cost);

  /// Recommended fine resolution for a set of cell grids: per axis, twice
  /// the least common multiple of the grid dimensions, so every cell
  /// boundary is a fine boundary and every cell splits at least in half.
  static Int3 recommend_res(const std::vector<Int3>& grid_dims);

 private:
  Box box_;
  Int3 res_;
  std::vector<CostEntry> entries_;
};

}  // namespace scmd
