#include "tuples/ucp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "pattern/generate.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace scmd {
namespace {

struct TestSystem {
  Box box;
  std::vector<Vec3> pos;
  std::vector<int> type;
};

TestSystem random_system(int n, double side, std::uint64_t seed) {
  TestSystem s;
  s.box = Box::cubic(side);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    s.pos.push_back(
        {rng.uniform(0, side), rng.uniform(0, side), rng.uniform(0, side)});
    s.type.push_back(0);
  }
  return s;
}

/// Canonical form of an undirected tuple of gids: min(chain, reversed).
std::vector<std::int64_t> canon(std::vector<std::int64_t> t) {
  std::vector<std::int64_t> r(t.rbegin(), t.rend());
  return std::min(t, r);
}

std::multiset<std::vector<std::int64_t>> collect_tuples(
    const CellDomain& dom, const Pattern& psi, double rcut,
    TupleCounters* tc = nullptr) {
  const CompiledPattern cp(psi);
  std::multiset<std::vector<std::int64_t>> out;
  const auto gids = dom.gids();
  for_each_tuple(
      dom, cp, rcut,
      [&](std::span<const int> t) {
        std::vector<std::int64_t> ids;
        for (int a : t) ids.push_back(gids[a]);
        out.insert(canon(std::move(ids)));
      },
      tc);
  return out;
}

TEST(CompiledPatternTest, GuardsFollowCollapseState) {
  const CompiledPattern sc(make_sc(2));
  int guarded = 0;
  for (const CompiledPath& p : sc.paths()) guarded += p.guard;
  EXPECT_EQ(guarded, 1);  // only the self-reflective (0,0) path

  const CompiledPattern fs(generate_fs(2));
  guarded = 0;
  for (const CompiledPath& p : fs.paths()) guarded += p.guard;
  EXPECT_EQ(guarded, 27);  // every full-shell path is guarded
}

TEST(CompiledPatternTest, RejectsLengthsTheEnumeratorLacks) {
  // The enumerator is instantiated for n = 2..5, so a longer pattern is
  // refused when it is compiled, not mid-run.
  Path p;
  for (int k = 0; k < 6; ++k) p.push_back({0, k, 0});
  Pattern six(6);
  six.add(p);
  EXPECT_THROW(CompiledPattern{six}, Error);
  EXPECT_THROW((CompiledPattern{six, CompiledPattern::Mode::kMerged}), Error);
}

TEST(CompiledPatternTest, RequiredHaloMatchesPattern) {
  const CompiledPattern sc(make_sc(3));
  EXPECT_EQ(sc.required_halo().lo, (Int3{0, 0, 0}));
  EXPECT_EQ(sc.required_halo().hi, (Int3{2, 2, 2}));
}

TEST(UcpPairTest, MatchesBruteForcePairs) {
  const TestSystem s = random_system(80, 12.0, 21);
  const double rcut = 3.0;
  const CellGrid grid(s.box, rcut);
  const Pattern sc = make_sc(2);
  const CellDomain dom =
      make_serial_domain(grid, halo_for(sc), s.pos, s.type);
  const auto tuples = collect_tuples(dom, sc, rcut);

  // Brute force with minimum image.
  std::multiset<std::vector<std::int64_t>> expected;
  for (int i = 0; i < 80; ++i) {
    for (int j = i + 1; j < 80; ++j) {
      if (s.box.dist2(s.pos[i], s.pos[j]) < rcut * rcut)
        expected.insert(canon({i, j}));
    }
  }
  EXPECT_EQ(tuples, expected);
}

TEST(UcpPairTest, FsAndScDeliverIdenticalTupleSets) {
  const TestSystem s = random_system(60, 12.0, 22);
  const double rcut = 3.0;
  const CellGrid grid(s.box, rcut);
  const Pattern sc = make_sc(2);
  const Pattern fs = generate_fs(2);
  const HaloSpec halo = merge(halo_for(sc), halo_for(fs));
  const CellDomain dom = make_serial_domain(grid, halo, s.pos, s.type);
  EXPECT_EQ(collect_tuples(dom, sc, rcut), collect_tuples(dom, fs, rcut));
}

TEST(UcpTripletTest, FsAndScDeliverIdenticalTripletSets) {
  const TestSystem s = random_system(50, 15.0, 23);
  const double rcut = 2.5;  // 6 cells per axis
  const CellGrid grid(s.box, rcut);
  const Pattern sc = make_sc(3);
  const Pattern fs = generate_fs(3);
  const HaloSpec halo = merge(halo_for(sc), halo_for(fs));
  const CellDomain dom = make_serial_domain(grid, halo, s.pos, s.type);
  EXPECT_EQ(collect_tuples(dom, sc, rcut), collect_tuples(dom, fs, rcut));
}

TEST(UcpTripletTest, NoDuplicateTuplesFromSc) {
  const TestSystem s = random_system(50, 15.0, 24);
  const double rcut = 2.5;
  const CellGrid grid(s.box, rcut);
  const Pattern sc = make_sc(3);
  const CellDomain dom =
      make_serial_domain(grid, halo_for(sc), s.pos, s.type);
  const auto tuples = collect_tuples(dom, sc, rcut);
  std::set<std::vector<std::int64_t>> unique(tuples.begin(), tuples.end());
  EXPECT_EQ(unique.size(), tuples.size());
}

TEST(UcpCountersTest, FsScansRoughlyTwiceSc) {
  const TestSystem s = random_system(200, 18.0, 25);
  const double rcut = 3.0;
  const CellGrid grid(s.box, rcut);
  const Pattern sc = make_sc(3);
  const Pattern fs = generate_fs(3);
  const HaloSpec halo = merge(halo_for(sc), halo_for(fs));
  const CellDomain dom = make_serial_domain(grid, halo, s.pos, s.type);

  TupleCounters tsc, tfs;
  collect_tuples(dom, sc, rcut, &tsc);
  collect_tuples(dom, fs, rcut, &tfs);
  // Identical accepted tuples; FS examines ~2x the chains.
  EXPECT_EQ(tsc.accepted, tfs.accepted);
  const double ratio = static_cast<double>(tfs.chain_candidates) /
                       static_cast<double>(tsc.chain_candidates);
  EXPECT_GT(ratio, 1.7);
  EXPECT_LT(ratio, 2.3);
}

TEST(ForceSetSizeTest, MatchesPatternSizeTimesOccupancyProduct) {
  // A uniform one-atom-per-cell system: |S(n)| = #cells * |Psi|.
  const Box box = Box::cubic(12.0);
  const CellGrid grid(box, 3.0);  // 4^3 cells
  std::vector<Vec3> pos;
  std::vector<int> type;
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y)
      for (int z = 0; z < 4; ++z) {
        pos.push_back({x * 3.0 + 1.5, y * 3.0 + 1.5, z * 3.0 + 1.5});
        type.push_back(0);
      }
  const Pattern sc = make_sc(2);
  const CellDomain dom = make_serial_domain(grid, halo_for(sc), pos, type);
  const CompiledPattern cp(sc);
  EXPECT_EQ(force_set_size(dom, cp),
            64 * static_cast<long long>(sc.size()));
}

TEST(ForceSetSizeTest, FsToScRatioNearTheory) {
  const TestSystem s = random_system(300, 18.0, 26);
  const CellGrid grid(s.box, 3.0);
  const Pattern sc = make_sc(3);
  const Pattern fs = generate_fs(3);
  const HaloSpec halo = merge(halo_for(sc), halo_for(fs));
  const CellDomain dom = make_serial_domain(grid, halo, s.pos, s.type);
  const double ratio =
      static_cast<double>(force_set_size(dom, CompiledPattern(fs))) /
      static_cast<double>(force_set_size(dom, CompiledPattern(sc)));
  // |Psi_FS| / |Psi_SC| = 729/378 ~ 1.93 for n = 3 (Fig. 7's ~2x).
  EXPECT_NEAR(ratio, 729.0 / 378.0, 0.15);
}

TEST(CountTuplesTest, AgreesWithVisitorCount) {
  const TestSystem s = random_system(70, 12.0, 27);
  const double rcut = 3.0;
  const CellGrid grid(s.box, rcut);
  const Pattern sc = make_sc(2);
  const CellDomain dom =
      make_serial_domain(grid, halo_for(sc), s.pos, s.type);
  const CompiledPattern cp(sc);
  const TupleCounters tc = count_tuples(dom, cp, rcut);
  std::uint64_t visits = 0;
  for_each_tuple(dom, cp, rcut, [&](std::span<const int>) { ++visits; });
  EXPECT_EQ(tc.accepted, visits);
}

}  // namespace
}  // namespace scmd
