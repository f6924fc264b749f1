// CostField: fine-lattice apportionment of measured per-cell costs.  The
// invariant that makes the balancer exact is mass conservation — every
// unit of measured work lands somewhere on the fine lattice.

#include "balance/cost_field.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "cell/domain.hpp"
#include "cell/grid.hpp"
#include "geom/box.hpp"
#include "net/transport.hpp"
#include "support/error.hpp"

namespace scmd {
namespace {

/// Value held at fine bin `index` (0 when the field has no entry there).
double value_at(const CostField& field, std::int64_t index) {
  const auto& e = field.entries();
  const auto it = std::lower_bound(
      e.begin(), e.end(), index,
      [](const CostEntry& c, std::int64_t i) { return c.index < i; });
  return it != e.end() && it->index == index ? it->value : 0.0;
}

TEST(CostFieldTest, RecommendResIsTwiceTheLcmOfGridDims) {
  // The silica pair (12^3) and triplet (24^3) grids on one box.
  EXPECT_EQ(CostField::recommend_res({{12, 12, 12}, {24, 24, 24}}),
            (Int3{48, 48, 48}));
  EXPECT_EQ(CostField::recommend_res({{6, 4, 3}}), (Int3{12, 8, 6}));
  EXPECT_EQ(CostField::recommend_res({{6, 4, 3}, {4, 6, 5}}),
            (Int3{24, 24, 30}));
}

TEST(CostFieldTest, BinOfCoversTheBoxAndClamps) {
  const Box box = Box::cubic(10.0);
  CostField field(box, {5, 4, 2});
  EXPECT_EQ(field.bin_of({0.1, 0.1, 0.1}), 0);
  // x bin 4, y bin 3, z bin 1 -> (1*4 + 3)*5 + 4.
  EXPECT_EQ(field.bin_of({9.9, 9.9, 9.9}), (1 * 4 + 3) * 5 + 4);
  // Exactly at the upper face clamps into the last bin instead of
  // running off the lattice.
  EXPECT_EQ(field.bin_of({10.0, 10.0, 10.0}), (1 * 4 + 3) * 5 + 4);

  field.add({{field.bin_of({0.1, 0.1, 0.1}), 2.5}});
  field.add({{field.bin_of({9.9, 0.1, 0.1}), 1.5}});
  EXPECT_DOUBLE_EQ(field.total(), 4.0);
  EXPECT_EQ(field.entries().size(), 2u);
}

TEST(CostFieldTest, DepositConservesMassAndFollowsStartAtoms) {
  const Box box = Box::cubic(12.0);
  const CellGrid grid = CellGrid::with_dims(box, {3, 3, 3});
  // Two atoms in cell (0,0,0), one in cell (2,2,2).
  const std::vector<Vec3> pos{
      {1.0, 1.0, 1.0}, {3.0, 3.0, 3.0}, {9.0, 9.0, 9.0}};
  const std::vector<int> type{0, 0, 0};
  const HaloSpec halo{{1, 1, 1}, {1, 1, 1}};
  const CellDomain dom = make_serial_domain(grid, halo, pos, type);

  std::vector<std::uint64_t> cell_cost(
      static_cast<std::size_t>(grid.dims().volume()), 0);
  auto cell = [&](int x, int y, int z) {
    return static_cast<std::size_t>((z * 3 + y) * 3 + x);
  };
  cell_cost[cell(0, 0, 0)] = 10;  // split between the two start atoms
  cell_cost[cell(2, 2, 2)] = 6;   // all on the single atom
  cell_cost[cell(1, 1, 1)] = 4;   // no atoms: cell-center fallback

  CostField field(box, CostField::recommend_res({grid.dims()}));
  field.deposit(dom, cell_cost);
  EXPECT_DOUBLE_EQ(field.total(), 20.0);

  // The two atoms of cell (0,0,0) got 5 each at their own fine bins.
  EXPECT_DOUBLE_EQ(value_at(field, field.bin_of({1.0, 1.0, 1.0})), 5.0);
  EXPECT_DOUBLE_EQ(value_at(field, field.bin_of({3.0, 3.0, 3.0})), 5.0);
  EXPECT_DOUBLE_EQ(value_at(field, field.bin_of({9.0, 9.0, 9.0})), 6.0);
  // Empty-cell mass sits at the cell's center (6, 6, 6).
  EXPECT_DOUBLE_EQ(value_at(field, field.bin_of({6.0, 6.0, 6.0})), 4.0);
}

TEST(CostFieldTest, DepositRejectsMismatchedCostVector) {
  const Box box = Box::cubic(12.0);
  const CellGrid grid = CellGrid::with_dims(box, {3, 3, 3});
  const std::vector<Vec3> pos{{1.0, 1.0, 1.0}};
  const std::vector<int> type{0};
  const CellDomain dom =
      make_serial_domain(grid, HaloSpec{{1, 1, 1}, {1, 1, 1}}, pos, type);
  CostField field(box, {6, 6, 6});
  std::vector<std::uint64_t> wrong_size(5, 1);
  EXPECT_THROW(field.deposit(dom, wrong_size), Error);
}

TEST(CostFieldTest, AddKeepsEntriesSortedAndSumsInArrivalOrder) {
  CostField field(Box::cubic(1.0), {4, 4, 4});
  field.add({{9, 1.0}, {3, 2.0}, {9, 0.5}, {60, 0.0}});
  field.add({{3, 1.0}, {0, 4.0}});
  const std::vector<CostEntry>& e = field.entries();
  ASSERT_EQ(e.size(), 3u);  // the zero at 60 is no entry
  EXPECT_EQ(e[0].index, 0);
  EXPECT_EQ(e[1].index, 3);
  EXPECT_EQ(e[2].index, 9);
  EXPECT_EQ(e[0].value, 4.0);
  EXPECT_EQ(e[1].value, 3.0);
  EXPECT_EQ(e[2].value, 1.5);

  // Per bin, the held value comes first and the batch follows in batch
  // order: ((a + b) + c) and a + (b + c) differ for these values.
  const double a = 1.0, b = 1e-16, c = 1e-16;
  ASSERT_NE((a + b) + c, a + (b + c));
  CostField order(Box::cubic(1.0), {2, 2, 2});
  order.add({{5, a}});
  order.add({{5, b}, {1, 1.0}, {5, c}});
  EXPECT_EQ(value_at(order, 5), (a + b) + c);
}

TEST(CostFieldTest, AddRejectsMalformedGatherEntries) {
  // The cost gather decodes each rank's payload and adds it to the
  // solver rank's field: bad indices and values throw, nothing lands.
  CostField field(Box::cubic(1.0), {2, 3, 4});
  const auto gather = [&](const std::vector<CostEntry>& wire) {
    field.add(unpack<CostEntry>(pack(wire)));
  };
  EXPECT_THROW(gather({{-1, 1.0}}), Error);
  EXPECT_THROW(gather({{24, 1.0}}), Error);  // one past the last bin
  EXPECT_THROW(gather({{0, -1.0}}), Error);
  EXPECT_THROW(gather({{0, std::numeric_limits<double>::quiet_NaN()}}),
               Error);
  EXPECT_THROW(gather({{0, std::numeric_limits<double>::infinity()}}),
               Error);
  EXPECT_THROW(gather({{1, 1.0}, {2, std::nan("")}}), Error);
  EXPECT_TRUE(field.entries().empty());
  // A payload that is not a whole number of 16-byte entries.
  Bytes ragged = pack(std::vector<CostEntry>{{1, 1.0}});
  ragged.pop_back();
  EXPECT_THROW(field.add(unpack<CostEntry>(ragged)), Error);

  gather({{23, 2.0}, {0, 0.0}});
  ASSERT_EQ(field.entries().size(), 1u);
  EXPECT_EQ(field.entries()[0].index, 23);
}

TEST(CostFieldTest, IndicesPastTwoToThe31Fit) {
  // 2048 x 1024 x 1536 bins: indices need 64 bits, and the field holds
  // only its entries (a dense lattice would be 24 GiB).
  const Box box = Box::cubic(10.0);
  const Int3 res{2048, 1024, 1536};
  CostField field(box, res);
  const std::int64_t last = field.bin_of({9.999, 9.999, 9.999});
  EXPECT_EQ(last, res.volume() - 1);
  EXPECT_GT(last, std::numeric_limits<std::int32_t>::max());
  field.add({{last, 1.0}, {0, 2.0}});
  EXPECT_EQ(field.entries().back().index, last);
  EXPECT_THROW(field.add({{res.volume(), 1.0}}), Error);
}

}  // namespace
}  // namespace scmd
