// Prefix-sharing (trie) enumeration must stream exactly the same tuples
// as the paper's per-path enumeration while doing no more search work.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <tuple>

#include "engines/serial_engine.hpp"
#include "md/builders.hpp"
#include "pattern/generate.hpp"
#include "potentials/lj.hpp"
#include "support/rng.hpp"
#include "tuples/ucp.hpp"

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

using TupleSet = std::multiset<std::vector<std::int64_t>>;

TupleSet collect(const CellDomain& dom, const Pattern& psi, double rcut,
                 CompiledPattern::Mode mode, TupleCounters* tc = nullptr) {
  const CompiledPattern cp(psi, mode);
  TupleSet out;
  const auto gids = dom.gids();
  for_each_tuple(
      dom, cp, rcut,
      [&](std::span<const int> t) {
        std::vector<std::int64_t> ids;
        for (int a : t) ids.push_back(gids[a]);
        std::vector<std::int64_t> rev(ids.rbegin(), ids.rend());
        out.insert(std::min(ids, rev));
      },
      tc);
  return out;
}

/// The pattern kinds TupleStrategy compiles, by strategy name.
Pattern make_kind(const std::string& kind, int n) {
  if (kind == "SC") return make_sc(n);
  if (kind == "FS") return generate_fs(n);
  if (kind == "OC") return oc_shift(generate_fs(n));
  return r_collapse(generate_fs(n));
}

/// Parameters: tuple length, and whether the patterns are R-collapsed
/// (SC and RC) or not (FS and OC).
class TrieEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(TrieEquivalenceTest, SameTuplesLessOrEqualWork) {
  const auto [n, collapsed] = GetParam();
  // n = 5 takes a 4^3 grid, the smallest that holds its 4-cell halo:
  // per-path enumeration there visits every path from every home cell.
  const TestSystem s =
      n == 5 ? random_system(40, 10.5, 405) : random_system(60, 13.0, 400 + n);
  const double rcut = 2.5;
  const CellGrid grid(s.box, rcut);
  for (const char* kind : collapsed ? std::array{"SC", "RC"}
                                    : std::array{"FS", "OC"}) {
    const Pattern psi = make_kind(kind, n);
    const CellDomain dom =
        make_serial_domain(grid, halo_for(psi), s.pos, s.type);
    TupleCounters flat, shared;
    const TupleSet a =
        collect(dom, psi, rcut, CompiledPattern::Mode::kPerPath, &flat);
    const TupleSet b =
        collect(dom, psi, rcut, CompiledPattern::Mode::kMerged, &shared);
    EXPECT_FALSE(a.empty()) << kind;
    EXPECT_EQ(a, b) << kind;
    EXPECT_EQ(flat.accepted, shared.accepted) << kind;
    EXPECT_EQ(flat.chain_candidates, shared.chain_candidates) << kind;
    EXPECT_LE(shared.search_steps, flat.search_steps) << kind;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PatternsAndLengths, TrieEquivalenceTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5), ::testing::Bool()));

TEST(TrieStructureTest, PerPathBuildsNoTrie) {
  const CompiledPattern flat(make_sc(3));
  EXPECT_FALSE(flat.merged());
  EXPECT_TRUE(flat.nodes().empty());
  EXPECT_EQ(flat.root_end(), 0);
}

TEST(TrieStructureTest, SlotsNameTheDistinctOffsets) {
  // Reach-1 SC(3) paths span offsets 0..2 per axis: 27 distinct cells.
  const CompiledPattern cp(make_sc(3), CompiledPattern::Mode::kMerged);
  EXPECT_EQ(cp.offsets().size(), 27u);
  for (const CompiledPath& p : cp.paths()) {
    for (int k = 0; k < p.n; ++k) {
      EXPECT_EQ(cp.offsets()[static_cast<std::size_t>(p.slot[k])], p.v[k]);
    }
  }
  for (const TrieNode& node : cp.nodes()) {
    EXPECT_EQ(cp.offsets()[static_cast<std::size_t>(node.slot)], node.v);
  }
}

TEST(TrieStructureTest, FullShellSharesTheRoot) {
  // All FS paths start at v0 = 0: a single root.
  const CompiledPattern fs(generate_fs(3), CompiledPattern::Mode::kMerged);
  EXPECT_EQ(fs.root_end(), 1);
  // Node count = trie size: 1 + 27 + 729 for FS(3).
  EXPECT_EQ(fs.nodes().size(), 1u + 27u + 729u);
}

TEST(TrieStructureTest, OcShiftScattersRoots) {
  // OC-shift translates paths individually, destroying the common root —
  // the structural reason prefix sharing helps FS more than SC.
  const CompiledPattern sc(make_sc(3), CompiledPattern::Mode::kMerged);
  EXPECT_GT(sc.root_end(), 1);
}

TEST(TrieStructureTest, LeafCountEqualsPathCount) {
  for (const Pattern& psi : {make_sc(3), generate_fs(2), make_sc(4)}) {
    const CompiledPattern cp(psi, CompiledPattern::Mode::kMerged);
    std::size_t leaves = 0;
    for (const TrieNode& node : cp.nodes()) {
      if (node.child_begin == node.child_end) ++leaves;
    }
    EXPECT_EQ(leaves, psi.size());
  }
}

TEST(TrieStrategyTest, SharedPrefixEngineMatchesDefault) {
  Rng rng(150);
  const LennardJones lj;
  const ParticleSystem base = make_gas(lj, 400, 4.0, 1.0, rng);
  auto run = [&](const std::string& name) {
    ParticleSystem sys = base;
    SerialEngineConfig cfg;
    cfg.dt = 0.004;
    SerialEngine engine(sys, lj, make_strategy(name, lj), cfg);
    for (int s = 0; s < 10; ++s) engine.step();
    return std::vector<Vec3>(sys.positions().begin(), sys.positions().end());
  };
  const auto flat = run("SC");
  const auto shared = run("SC+p");
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_NEAR(flat[i].x, shared[i].x, 1e-9) << i;
    EXPECT_NEAR(flat[i].y, shared[i].y, 1e-9) << i;
    EXPECT_NEAR(flat[i].z, shared[i].z, 1e-9) << i;
  }
}

TEST(TrieStrategyTest, NameSuffixParsing) {
  const LennardJones lj;
  EXPECT_EQ(make_strategy("SC+p", lj)->name(), "SC+p");
  EXPECT_EQ(make_strategy("FS:2+p", lj)->name(), "FS/k=2+p");
}

}  // namespace
}  // namespace scmd
