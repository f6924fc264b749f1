// Golden counters of the UCP enumerator: for every pattern kind (SC, FS,
// OC, RC), both enumeration modes and n = 2..5 on one seeded system, the
// exact work counters and an order-sensitive hash of the emitted gid
// stream.  The hash pins the visit order, and with it the order in which
// forces are summed, so an enumerator that reproduces this table
// reproduces every force bit for bit.  A change to any value is a change
// to the tuple stream, not a refactor.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "pattern/generate.hpp"
#include "support/rng.hpp"
#include "tuples/ucp.hpp"

namespace scmd {
namespace {

struct Golden {
  const char* kind;
  bool merged;
  int n;
  std::uint64_t search_steps;
  std::uint64_t cell_visits;
  std::uint64_t chain_candidates;
  std::uint64_t accepted;
  std::uint64_t stream_hash;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"SC", false, 2, 942, 1456, 54, 49, 5932366706309033228ull},
    {"SC", true, 2, 702, 1072, 54, 49, 5932366706309033228ull},
    {"FS", false, 2, 1792, 2808, 98, 49, 13818331832601239310ull},
    {"FS", true, 2, 752, 1144, 98, 49, 931430430003131902ull},
    {"OC", false, 2, 1792, 2808, 98, 49, 13719648948254342742ull},
    {"OC", true, 2, 1032, 1592, 98, 49, 16585624211321088250ull},
    {"RC", false, 2, 942, 1456, 54, 49, 1507543219931390536ull},
    {"RC", true, 2, 422, 624, 54, 49, 2390958185170485444ull},
    {"SC", false, 3, 26085, 40684, 114, 111, 12965316681804697124ull},
    {"SC", true, 3, 5512, 8100, 114, 111, 3655202574166553810ull},
    {"FS", false, 3, 50222, 78462, 222, 111, 2072312401025112322ull},
    {"FS", true, 3, 2590, 3790, 222, 111, 13566325585478561306ull},
    {"OC", false, 3, 50222, 78462, 222, 111, 16411394254899114940ull},
    {"OC", true, 3, 6353, 9374, 222, 111, 12487339060610444834ull},
    {"RC", false, 3, 26085, 40684, 114, 111, 14366379554042169794ull},
    {"RC", true, 3, 1749, 2516, 114, 111, 3655190274014281634ull},
    {"SC", false, 4, 680795, 1063629, 235, 235, 9786052851663365294ull},
    {"SC", true, 4, 25574, 37325, 235, 235, 4383232777723325066ull},
    {"FS", false, 4, 1360243, 2124468, 470, 235, 11398544009421184318ull},
    {"FS", true, 4, 6839, 9784, 470, 235, 11623471422296860206ull},
    {"OC", false, 4, 1360243, 2124468, 470, 235, 16536502017443103970ull},
    {"OC", true, 4, 28407, 41250, 470, 235, 10251920665498464054ull},
    {"RC", false, 4, 680795, 1063629, 235, 235, 7650644419347072766ull},
    {"RC", true, 4, 4693, 6729, 235, 235, 14585651864419974002ull},
    {"SC", false, 5, 18384440, 28724035, 480, 480, 11426464627477311245ull},
    {"SC", true, 5, 90081, 129256, 480, 480, 1953618758232146055ull},
    {"FS", false, 5, 36735543, 57373326, 960, 480, 12343035411514070653ull},
    {"FS", true, 5, 15821, 22474, 960, 480, 4894716032100873151ull},
    {"OC", false, 5, 36735543, 57373326, 960, 480, 16508967985596930843ull},
    {"OC", true, 5, 96462, 138095, 960, 480, 11788022412729662659ull},
    {"RC", false, 5, 18384440, 28724035, 480, 480, 6068875427848130591ull},
    {"RC", true, 5, 11231, 15953, 480, 480, 15825872109155056431ull},
};
// clang-format on

Pattern make_kind(const std::string& kind, int n) {
  if (kind == "SC") return make_sc(n);
  if (kind == "FS") return generate_fs(n);
  if (kind == "OC") return oc_shift(generate_fs(n));
  return r_collapse(generate_fs(n));
}

/// Enumerate `psi` over `dom` in one mode: the counters, plus an FNV-1a
/// hash of every emitted gid in emission order.
Golden enumerate(const CellDomain& dom, const Pattern& psi, bool merged,
                 double rcut) {
  const CompiledPattern cp(psi, merged ? CompiledPattern::Mode::kMerged
                                       : CompiledPattern::Mode::kPerPath);
  TupleCounters tc;
  std::uint64_t hash = 14695981039346656037ull;
  const auto gids = dom.gids();
  for_each_tuple(
      dom, cp, rcut,
      [&](std::span<const int> t) {
        for (const int a : t) {
          hash ^= static_cast<std::uint64_t>(gids[static_cast<std::size_t>(a)]);
          hash *= 1099511628211ull;
        }
      },
      &tc);
  return {"", merged, psi.n(), tc.search_steps, tc.cell_visits,
          tc.chain_candidates, tc.accepted, hash};
}

class GoldenCountersTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(GoldenCountersTest, CountersAndStreamMatchTable) {
  const auto& [n, kind] = GetParam();
  // 40 atoms in a 10.5^3 box at rcut 2.5: a 4^3 grid, the smallest that
  // holds the n = 5 halo, with ~2.3 neighbours per atom, so every arity
  // accepts tuples (49 pairs up to 480 quintuples).  Per-path enumeration
  // at n = 5 visits every path from every home cell (531,441 FS paths x
  // 64 cells), which sets the size.
  const double side = 10.5;
  const double rcut = 2.5;
  const Box box = Box::cubic(side);
  Rng rng(2013);
  std::vector<Vec3> pos;
  for (int i = 0; i < 40; ++i) {
    pos.push_back(
        {rng.uniform(0, side), rng.uniform(0, side), rng.uniform(0, side)});
  }
  const std::vector<int> type(pos.size(), 0);
  const CellGrid grid(box, rcut);
  const Pattern psi = make_kind(kind, n);
  const CellDomain dom = make_serial_domain(grid, halo_for(psi), pos, type);
  for (const bool merged : {false, true}) {
    const Golden got = enumerate(dom, psi, merged, rcut);
    const Golden* want = nullptr;
    for (const Golden& g : kGolden) {
      if (g.kind == kind && g.merged == merged && g.n == n) want = &g;
    }
    const std::string row =
        "{\"" + kind + "\", " + (merged ? "true" : "false") + ", " +
        std::to_string(n) + ", " + std::to_string(got.search_steps) + ", " +
        std::to_string(got.cell_visits) + ", " +
        std::to_string(got.chain_candidates) + ", " +
        std::to_string(got.accepted) + ", " +
        std::to_string(got.stream_hash) + "ull},";
    if (want == nullptr) {
      ADD_FAILURE() << "no golden row; measured " << row;
      continue;
    }
    EXPECT_EQ(got.search_steps, want->search_steps) << row;
    EXPECT_EQ(got.cell_visits, want->cell_visits) << row;
    EXPECT_EQ(got.chain_candidates, want->chain_candidates) << row;
    EXPECT_EQ(got.accepted, want->accepted) << row;
    EXPECT_EQ(got.stream_hash, want->stream_hash) << row;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndLengths, GoldenCountersTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values(std::string("SC"), std::string("FS"),
                                         std::string("OC"),
                                         std::string("RC"))));

}  // namespace
}  // namespace scmd
