// Property tests for the paper's central theorems: n-completeness of the
// SC pattern (Theorem 2), path-shift invariance (Theorem 1), and
// reflective invariance (Lemma 3), checked on random atom configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "pattern/generate.hpp"
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

std::vector<std::int64_t> canon(std::vector<std::int64_t> t) {
  std::vector<std::int64_t> r(t.rbegin(), t.rend());
  return std::min(t, r);
}

std::set<std::vector<std::int64_t>> enumerate_set(const TestSystem& s,
                                                  const Pattern& psi,
                                                  double rcut) {
  const CellGrid grid(s.box, rcut);
  const CellDomain dom =
      make_serial_domain(grid, halo_for(psi), s.pos, s.type);
  const CompiledPattern cp(psi);
  std::set<std::vector<std::int64_t>> out;
  const auto gids = dom.gids();
  for_each_tuple(dom, cp, rcut, [&](std::span<const int> t) {
    std::vector<std::int64_t> ids;
    for (int a : t) ids.push_back(gids[a]);
    out.insert(canon(std::move(ids)));
  });
  return out;
}

/// Brute-force Γ*(n): all distinct-atom chains with consecutive
/// min-image distances < rcut, canonicalized under reflection.
std::set<std::vector<std::int64_t>> brute_force_chains(const TestSystem& s,
                                                       int n, double rcut) {
  const int N = static_cast<int>(s.pos.size());
  const double rc2 = rcut * rcut;
  std::set<std::vector<std::int64_t>> out;
  std::vector<std::int64_t> chain;
  auto extend = [&](auto&& self) -> void {
    if (static_cast<int>(chain.size()) == n) {
      out.insert(canon(chain));
      return;
    }
    for (std::int64_t next = 0; next < N; ++next) {
      if (std::find(chain.begin(), chain.end(), next) != chain.end())
        continue;
      if (!chain.empty()) {
        const auto prev = static_cast<std::size_t>(chain.back());
        if (s.box.dist2(s.pos[prev],
                        s.pos[static_cast<std::size_t>(next)]) >= rc2)
          continue;
      }
      chain.push_back(next);
      self(self);
      chain.pop_back();
    }
  };
  extend(extend);
  return out;
}

class CompletenessTest : public ::testing::TestWithParam<int> {};

/// Box side for tuple length n at rcut 2.5, so the n-1 cell halo fits
/// (grid >= halo).  n = 5 takes the smallest such grid, 4^3, because
/// per-path enumeration visits every path from every home cell.
double box_side(int n) { return n == 2 ? 10.0 : n == 5 ? 10.5 : 13.0; }

int atom_count(int n) { return n == 4 ? 25 : n == 5 ? 30 : 40; }

TEST_P(CompletenessTest, ScEqualsBruteForceGammaStar) {
  const int n = GetParam();
  const double rcut = 2.5;
  const Pattern sc = make_sc(n);
  std::size_t chains = 0;
  for (std::uint64_t seed : {100u, 101u, 102u}) {
    const TestSystem s = random_system(atom_count(n), box_side(n), seed + n);
    const auto oracle = brute_force_chains(s, n, rcut);
    chains += oracle.size();
    EXPECT_EQ(enumerate_set(s, sc, rcut), oracle)
        << "n=" << n << " seed=" << seed;
  }
  EXPECT_GT(chains, 0u) << "n=" << n;
}

TEST_P(CompletenessTest, FsEqualsBruteForceGammaStar) {
  const int n = GetParam();
  const double rcut = 2.5;
  const TestSystem s = random_system(atom_count(n), box_side(n), 200 + n);
  EXPECT_EQ(enumerate_set(s, generate_fs(n), rcut),
            brute_force_chains(s, n, rcut));
}

INSTANTIATE_TEST_SUITE_P(TupleLengths, CompletenessTest,
                         ::testing::Values(2, 3, 4, 5));

TEST(ShiftInvarianceTest, SinglePathForceSetUnchangedByShift) {
  // Theorem 1 on real data: UCP(Ω, {p}) == UCP(Ω, {p + Δ}).
  const TestSystem s = random_system(60, 12.0, 300);
  const double rcut = 3.0;
  Rng rng(301);
  for (int trial = 0; trial < 10; ++trial) {
    // A random unit-step path of length 3.
    Path p;
    p.push_back({0, 0, 0});
    for (int k = 0; k < 2; ++k) {
      p.push_back(p[k] + Int3{static_cast<int>(rng.uniform_index(3)) - 1,
                              static_cast<int>(rng.uniform_index(3)) - 1,
                              static_cast<int>(rng.uniform_index(3)) - 1});
    }
    const Int3 delta{static_cast<int>(rng.uniform_index(3)) - 1,
                     static_cast<int>(rng.uniform_index(3)) - 1,
                     static_cast<int>(rng.uniform_index(3)) - 1};
    Pattern single(3);
    single.add(p);
    single.set_collapsed(true);
    Pattern shifted(3);
    shifted.add(p.shifted(delta));
    shifted.set_collapsed(true);
    EXPECT_EQ(enumerate_set(s, single, rcut),
              enumerate_set(s, shifted, rcut))
        << "trial " << trial;
  }
}

TEST(ReflectiveInvarianceTest, TwinPathsGenerateSameForceSet) {
  // Lemma 3 on real data: σ(p') = σ(p^{-1}) => same force set.
  const TestSystem s = random_system(60, 12.0, 302);
  const double rcut = 3.0;
  Rng rng(303);
  for (int trial = 0; trial < 10; ++trial) {
    Path p;
    p.push_back({0, 0, 0});
    for (int k = 0; k < 2; ++k) {
      p.push_back(p[k] + Int3{static_cast<int>(rng.uniform_index(3)) - 1,
                              static_cast<int>(rng.uniform_index(3)) - 1,
                              static_cast<int>(rng.uniform_index(3)) - 1});
    }
    const Path twin = p.inverse().shifted(-p[2]);  // RPT(p), Lemma 6
    Pattern a(3), b(3);
    a.add(p);
    a.set_collapsed(true);
    b.add(twin);
    b.set_collapsed(true);
    EXPECT_EQ(enumerate_set(s, a, rcut), enumerate_set(s, b, rcut))
        << "trial " << trial;
  }
}

TEST(CutoffSweepTest, TupleCountGrowsMonotonicallyWithCutoff) {
  const TestSystem s = random_system(80, 15.0, 304);
  std::size_t prev = 0;
  for (double rcut : {1.5, 2.0, 2.5, 3.0}) {
    const auto tuples = enumerate_set(s, make_sc(2), rcut);
    EXPECT_GE(tuples.size(), prev);
    prev = tuples.size();
  }
}

TEST(EmptySystemTest, NoTuplesFromIsolatedAtoms) {
  // Atoms farther apart than the cutoff produce no tuples.
  TestSystem s;
  s.box = Box::cubic(30.0);
  for (int i = 0; i < 3; ++i) {
    s.pos.push_back({5.0 + i * 10.0, 5.0, 5.0});
    s.type.push_back(0);
  }
  EXPECT_TRUE(enumerate_set(s, make_sc(2), 2.0).empty());
  EXPECT_TRUE(enumerate_set(s, make_sc(3), 2.0).empty());
}

}  // namespace
}  // namespace scmd
