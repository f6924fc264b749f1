#include "balance/cost_field.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "support/error.hpp"

namespace scmd {

CostField::CostField(const Box& box, const Int3& res)
    : box_(box), res_(res) {
  SCMD_REQUIRE(res.x >= 1 && res.y >= 1 && res.z >= 1,
               "fine lattice resolution must be positive");
}

double CostField::total() const {
  double t = 0.0;
  for (const CostEntry& e : entries_) t += e.value;
  return t;
}

std::int64_t CostField::bin_of(const Vec3& p) const {
  Int3 b;
  for (int a = 0; a < 3; ++a) {
    const int i = static_cast<int>(p[a] / box_.length(a) *
                                   static_cast<double>(res_[a]));
    b[a] = std::clamp(i, 0, res_[a] - 1);
  }
  return (static_cast<std::int64_t>(b.z) * res_.y + b.y) * res_.x + b.x;
}

void CostField::add(std::vector<CostEntry> batch) {
  const long long volume = res_.volume();
  for (const CostEntry& e : batch) {
    SCMD_REQUIRE(e.index >= 0 && e.index < volume,
                 "cost entry indexes outside the fine lattice");
    SCMD_REQUIRE(std::isfinite(e.value) && e.value >= 0.0,
                 "cost entry value must be finite and non-negative");
  }
  // Both merge steps are stable, so equal indices keep the held value
  // first and the batch after it in batch order; the fold then sums
  // them left to right.
  const auto by_index = [](const CostEntry& a, const CostEntry& b) {
    return a.index < b.index;
  };
  std::stable_sort(batch.begin(), batch.end(), by_index);
  const auto held = static_cast<std::ptrdiff_t>(entries_.size());
  entries_.insert(entries_.end(), batch.begin(), batch.end());
  std::inplace_merge(entries_.begin(), entries_.begin() + held,
                     entries_.end(), by_index);
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries_.size();) {
    CostEntry sum = entries_[i];
    for (++i; i < entries_.size() && entries_[i].index == sum.index; ++i)
      sum.value += entries_[i].value;
    if (sum.value != 0.0) entries_[out++] = sum;
  }
  entries_.resize(out);
}

void CostField::deposit(const CellDomain& dom,
                        const std::vector<std::uint64_t>& cell_cost) {
  const Int3 od = dom.owned_dims();
  SCMD_REQUIRE(static_cast<long long>(cell_cost.size()) == od.volume(),
               "cell cost array does not match the domain's owned brick");
  const Vec3 cl = dom.grid().cell_lengths();
  const auto pos = dom.positions();
  std::vector<CostEntry> batch;
  for (int z = 0; z < od.z; ++z) {
    for (int y = 0; y < od.y; ++y) {
      for (int x = 0; x < od.x; ++x) {
        const double w = static_cast<double>(
            cell_cost[(static_cast<std::size_t>(z) * od.y + y) * od.x + x]);
        if (w == 0.0) continue;
        const Int3 local = dom.owned_base() + Int3{x, y, z};
        const auto [first, mid] = dom.cell_start_range(dom.cell_index(local));
        if (mid > first) {
          const double share = w / static_cast<double>(mid - first);
          for (int i = first; i < mid; ++i)
            batch.push_back(
                {bin_of(box_.wrap(pos[static_cast<std::size_t>(i)])), share});
        } else {
          // No chain-start atoms in the cell (its work came from scans
          // that rejected every candidate, or from extended home cells):
          // keep the mass, deposited at the cell center.
          const Int3 g = dom.global_coord(local);
          const Vec3 center{(g.x + 0.5) * cl.x, (g.y + 0.5) * cl.y,
                            (g.z + 0.5) * cl.z};
          batch.push_back({bin_of(box_.wrap(center)), w});
        }
      }
    }
  }
  add(std::move(batch));
}

Int3 CostField::recommend_res(const std::vector<Int3>& grid_dims) {
  SCMD_REQUIRE(!grid_dims.empty(), "need at least one grid");
  Int3 res{1, 1, 1};
  for (const Int3& d : grid_dims) {
    for (int a = 0; a < 3; ++a) res[a] = std::lcm(res[a], d[a]);
  }
  for (int a = 0; a < 3; ++a) res[a] *= 2;
  return res;
}

}  // namespace scmd
