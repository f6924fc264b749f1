#pragma once

/// \file ucp.hpp
/// Uniform-cell-pattern (UCP) n-tuple enumeration (paper Table 1).
///
/// Given a cell domain and a computation pattern, stream every accepted
/// range-limited n-tuple to a visitor.  "Accepted" means:
///
///  1. chain cutoff: every consecutive pair of the chain is closer than
///     rcut (Eq. 6) — checked incrementally, pruning the search;
///  2. distinctness: all atoms of the tuple have distinct global ids
///     (tuples are over distinct atoms; periodic self-images excluded);
///  3. orientation: each *undirected* tuple is delivered exactly once.
///     A collapsed pattern generates each tuple in one orientation except
///     through self-reflective paths, which generate both; an uncollapsed
///     (full-shell) pattern generates both orientations through twin
///     paths.  Guarded paths therefore keep a tuple only when
///     gid(first) < gid(last).
///
/// One entry point, for_each_tuple, runs the home-cell loop for both modes
/// of a CompiledPattern: per path (paper Table 1) via extend_chain_fixed,
/// or down the merged prefix trie via extend_trie_fixed.  Both recursions
/// fix the tuple length at compile time, for n = 2..5.
///
/// Per-path enumeration keeps its own recursion rather than running
/// through extend_trie_fixed over an unmerged trie (one whose paths share
/// no prefix).  Three layouts of that — a slot table per call, the slot
/// stored in the node, a depth-first node order — each lost 4 of 4
/// alternating serial-search ladder pairs on a 4-core VM, by 7-33% per
/// pair (19.2-24.5 against 22.3-29.9 steps/s; traced search 40.5 against
/// 36.8 ms per step).
///
/// The enumeration cost counters are the measured quantities behind the
/// paper's Fig. 7 and the search-cost side of Figs. 8-9.

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "cell/domain.hpp"
#include "pattern/pattern.hpp"

namespace scmd {

/// Largest tuple length the enumerator is instantiated for (chain5 is the
/// largest arity any field uses); kMaxTupleLen bounds the pattern algebra.
inline constexpr int kMaxEnumLen = 5;

/// One path preprocessed for enumeration.
struct CompiledPath {
  std::array<Int3, kMaxTupleLen> v{};  ///< cell offsets
  /// Per level, the index of v[level] in CompiledPattern::offsets().
  std::array<int, kMaxTupleLen> slot{};
  int n = 0;
  /// Apply the gid(first) < gid(last) orientation guard (see file docs).
  bool guard = false;
};

/// One node of the compiled prefix trie (see CompiledPattern).
struct TrieNode {
  Int3 v;             ///< cell offset at this chain level
  int slot = 0;       ///< index of v in CompiledPattern::offsets()
  bool guard = false; ///< orientation guard (meaningful at leaves)
  int child_begin = 0;  ///< children occupy [child_begin, child_end) in
  int child_end = 0;    ///< the node pool; leaves have an empty range
};

/// A pattern preprocessed for enumeration in one of two modes:
///
///  - per-path (paper Table 1, the default): each path's chain search
///    runs independently — the implementation model the paper's cost
///    analysis (Lemma 5: T_UCP ∝ |Ψ|) and its FS/SC comparisons assume;
///  - merged (the "+p" strategies): paths sharing the offsets (v0..vk)
///    share the partial-chain search for those levels, down a prefix
///    trie.  This is an extension of ours: it speeds everything up, it is
///    what makes sub-cutoff (reach >= 2) patterns profitable at all, and
///    it measurably *narrows* the FS-vs-SC search gap, because full-shell
///    paths (all rooted at v0 = 0) share prefixes maximally while OC-shift
///    scatters the SC roots.  See EXPERIMENTS.md.
///
/// Only merged mode builds the trie.  Both modes dedupe their cell offsets
/// here, once, so an enumeration call only linearises offsets().
class CompiledPattern {
 public:
  enum class Mode { kPerPath, kMerged };

  CompiledPattern() = default;

  /// Compile a pattern.  `collapsed()` of the pattern decides guarding:
  /// collapsed patterns guard only self-reflective paths; uncollapsed
  /// patterns guard every path.  Throws scmd::Error unless
  /// 2 <= n <= kMaxEnumLen.
  explicit CompiledPattern(const Pattern& psi, Mode mode = Mode::kPerPath);

  int n() const { return n_; }
  bool merged() const { return mode_ == Mode::kMerged; }
  std::span<const CompiledPath> paths() const { return paths_; }

  /// Trie access (merged mode; empty per path): nodes at depth 0 occupy
  /// [0, root_end()); a node's children are nodes()[child_begin..child_end).
  std::span<const TrieNode> nodes() const { return nodes_; }
  int root_end() const { return root_end_; }

  /// The pattern's distinct cell offsets, indexed by the paths' and the
  /// nodes' `slot`.
  std::span<const Int3> offsets() const { return offsets_; }

  /// Largest coverage offsets — must fit in the domain halo.
  HaloSpec required_halo() const { return halo_; }

 private:
  int n_ = 0;
  Mode mode_ = Mode::kPerPath;
  std::vector<CompiledPath> paths_;
  std::vector<TrieNode> nodes_;
  int root_end_ = 0;
  std::vector<Int3> offsets_;
  HaloSpec halo_;
};

/// Work counters accumulated during enumeration.
struct TupleCounters {
  /// Candidate atoms examined across all partial chain extensions — the
  /// search workload T_UCP (proportional to Eq. 12's filtering cost).
  std::uint64_t search_steps = 0;
  /// Complete chains that passed every cutoff and distinctness check.
  std::uint64_t chain_candidates = 0;
  /// Tuples delivered to the visitor (after the orientation guard).
  std::uint64_t accepted = 0;
  /// Cell lookups performed (one per path/trie-node extension reaching a
  /// cell, even an empty one).  The bookkeeping cost that dominates
  /// sub-cutoff (reach >= 2) patterns, whose many small cells are mostly
  /// empty.
  std::uint64_t cell_visits = 0;

  TupleCounters& operator+=(const TupleCounters& o) {
    search_steps += o.search_steps;
    chain_candidates += o.chain_candidates;
    accepted += o.accepted;
    cell_visits += o.cell_visits;
    return *this;
  }

  /// Snapshot-delta support (per-step work from cumulative counters).
  TupleCounters& operator-=(const TupleCounters& o) {
    search_steps -= o.search_steps;
    chain_candidates -= o.chain_candidates;
    accepted -= o.accepted;
    cell_visits -= o.cell_visits;
    return *this;
  }
};

/// |S(n)| — the force-set size generated by the pattern over the domain:
/// sum over owned home cells and paths of the product of the n touched
/// cells' occupancies (paper Eq. 23; the quantity plotted in Fig. 7).
/// Computed from occupancies alone, no tuple enumeration.
long long force_set_size(const CellDomain& dom, const CompiledPattern& cp);

namespace detail {

/// Atom-index ranges of one visited cell, precomputed per home cell for
/// the arity-specialized extensions: [first, mid) are the cell's
/// chain-start atoms (level-0 candidates), [first, last) all its atoms
/// (continuation-level candidates).
struct CellRange {
  int first;
  int mid;
  int last;
};

/// Chain extension for one path (paper Table 1), with the level and
/// tuple length fixed at compile time, so the loop nest fully unrolls —
/// the distinctness compares, the is-last branch, and the guard load all
/// resolve statically and the per-candidate body carries no arity
/// branching.  Two invariants stay out of the per-visit work:
///
///  - a path touches few *distinct* cells (the same offsets recur across
///    paths and levels), but the recursion revisits each one per
///    surviving partial chain — and visited cells hold ~2 candidates at
///    MD densities, so per-visit setup dominates the whole search.  The
///    caller therefore resolves every distinct offset's cell range ONCE
///    per home cell into `ranges`, and `level_slot[k]` names the path's
///    level-k entry; each visit reads a small, cache-hot array instead
///    of re-deriving the cell index and loading its bin bounds;
///  - `cg` carries the chain's gid prefix down the recursion — the
///    caller appends the survivor's gid before recursing instead of the
///    callee re-gathering every chain member's gid per visit.
template <int Level, int N, class Visitor>
inline void extend_chain_fixed(const CellDomain& dom,
                               const CellRange* ranges,
                               const int* level_slot,
                               const CompiledPath& path, double rcut2,
                               std::array<int, kMaxTupleLen>& chain,
                               std::array<std::int64_t, kMaxTupleLen>& cg,
                               Visitor& visit, TupleCounters& tc) {
  static_assert(Level >= 0 && Level < N && N <= kMaxTupleLen);
  ++tc.cell_visits;
  const CellRange& cr = ranges[level_slot[Level]];
  // Level 0 visits chain starts only (the rank-ownership partition);
  // continuation levels see every atom, ghosts included.
  const int first = cr.first;
  const int last = Level == 0 ? cr.mid : cr.last;
  const std::span<const Vec3> pos = dom.positions();
  const std::span<const std::int64_t> gid = dom.gids();
  constexpr bool kIsLast = (Level == N - 1);
  const Vec3 prev_pos =
      Level > 0 ? pos[static_cast<std::size_t>(
                      chain[static_cast<std::size_t>(Level - 1)])]
                : Vec3{};
  const std::int64_t guard_gid0 = (kIsLast && path.guard) ? cg[0] : 0;

  // Every candidate in the range is one search step; counted up front so
  // the hot loop carries no memory increment (same total, same meaning).
  tc.search_steps += static_cast<std::uint64_t>(last - first);
  if constexpr (Level == 0) {
    for (int a = first; a < last; ++a) {
      chain[0] = a;
      cg[0] = gid[static_cast<std::size_t>(a)];
      extend_chain_fixed<1, N>(dom, ranges, level_slot, path, rcut2, chain,
                               cg, visit, tc);
    }
  } else if constexpr (!kIsLast) {
    for (int a = first; a < last; ++a) {
      const Vec3 d = pos[static_cast<std::size_t>(a)] - prev_pos;
      // Cutoff and distinctness (unrolled: Level is a constant) folded
      // into one branch — the separate early-outs each mispredict on
      // these ~2-candidate cells.
      const std::int64_t ga = gid[static_cast<std::size_t>(a)];
      bool dup = false;
      for (int k = 0; k < Level; ++k) {
        dup |= cg[static_cast<std::size_t>(k)] == ga;
      }
      if (d.norm2() < rcut2 && !dup) {
        chain[static_cast<std::size_t>(Level)] = a;
        cg[static_cast<std::size_t>(Level)] = ga;
        extend_chain_fixed<Level + 1, N>(dom, ranges, level_slot, path,
                                         rcut2, chain, cg, visit, tc);
      }
    }
  } else {
    // Last level: the accept test is evaluated branch-free per candidate
    // (cutoff, distinctness, orientation guard), and the counters
    // accumulate in registers — only an actual acceptance (rare) takes a
    // branch.  Increment-for-increment equivalent to the branchy form.
    std::uint64_t cands = 0;
    std::uint64_t acc = 0;
    for (int a = first; a < last; ++a) {
      const Vec3 d = pos[static_cast<std::size_t>(a)] - prev_pos;
      const std::int64_t ga = gid[static_cast<std::size_t>(a)];
      bool dup = false;
      for (int k = 0; k < Level; ++k) {
        dup |= cg[static_cast<std::size_t>(k)] == ga;
      }
      const bool cand = d.norm2() < rcut2 && !dup;
      cands += static_cast<std::uint64_t>(cand);
      const bool ok = cand && !(path.guard && guard_gid0 > ga);
      if (ok) {
        ++acc;
        chain[static_cast<std::size_t>(Level)] = a;
        visit(std::span<const int>(chain.data(),
                                   static_cast<std::size_t>(N)));
      }
    }
    tc.chain_candidates += cands;
    tc.accepted += acc;
  }
}

/// Chain extension down the prefix trie: extend_chain_fixed with a node
/// in place of a path level, recursing into the node's children.  Same
/// counter semantics, per node instead of per path level.
template <int Depth, int N, class Visitor>
inline void extend_trie_fixed(const CellDomain& dom,
                              const CellRange* ranges,
                              std::span<const TrieNode> nodes, int node_idx,
                              double rcut2,
                              std::array<int, kMaxTupleLen>& chain,
                              std::array<std::int64_t, kMaxTupleLen>& cg,
                              Visitor& visit, TupleCounters& tc) {
  static_assert(Depth >= 0 && Depth < N && N <= kMaxTupleLen);
  ++tc.cell_visits;
  const TrieNode& node = nodes[static_cast<std::size_t>(node_idx)];
  const CellRange& cr = ranges[node.slot];
  const int first = cr.first;
  const int last = Depth == 0 ? cr.mid : cr.last;
  const std::span<const Vec3> pos = dom.positions();
  const std::span<const std::int64_t> gid = dom.gids();
  constexpr bool kIsLast = (Depth == N - 1);
  const Vec3 prev_pos =
      Depth > 0 ? pos[static_cast<std::size_t>(
                      chain[static_cast<std::size_t>(Depth - 1)])]
                : Vec3{};
  const std::int64_t guard_gid0 = (kIsLast && node.guard) ? cg[0] : 0;

  tc.search_steps += static_cast<std::uint64_t>(last - first);
  if constexpr (Depth == 0) {
    for (int a = first; a < last; ++a) {
      chain[0] = a;
      cg[0] = gid[static_cast<std::size_t>(a)];
      for (int c = node.child_begin; c < node.child_end; ++c) {
        extend_trie_fixed<1, N>(dom, ranges, nodes, c, rcut2, chain, cg,
                                visit, tc);
      }
    }
  } else if constexpr (!kIsLast) {
    for (int a = first; a < last; ++a) {
      const Vec3 d = pos[static_cast<std::size_t>(a)] - prev_pos;
      const std::int64_t ga = gid[static_cast<std::size_t>(a)];
      bool dup = false;
      for (int k = 0; k < Depth; ++k) {
        dup |= cg[static_cast<std::size_t>(k)] == ga;
      }
      if (d.norm2() < rcut2 && !dup) {
        chain[static_cast<std::size_t>(Depth)] = a;
        cg[static_cast<std::size_t>(Depth)] = ga;
        for (int c = node.child_begin; c < node.child_end; ++c) {
          extend_trie_fixed<Depth + 1, N>(dom, ranges, nodes, c, rcut2,
                                          chain, cg, visit, tc);
        }
      }
    }
  } else {
    // Branch-free last-level accept, as in extend_chain_fixed.
    std::uint64_t cands = 0;
    std::uint64_t acc = 0;
    for (int a = first; a < last; ++a) {
      const Vec3 d = pos[static_cast<std::size_t>(a)] - prev_pos;
      const std::int64_t ga = gid[static_cast<std::size_t>(a)];
      bool dup = false;
      for (int k = 0; k < Depth; ++k) {
        dup |= cg[static_cast<std::size_t>(k)] == ga;
      }
      const bool cand = d.norm2() < rcut2 && !dup;
      cands += static_cast<std::uint64_t>(cand);
      const bool ok = cand && !(node.guard && guard_gid0 > ga);
      if (ok) {
        ++acc;
        chain[static_cast<std::size_t>(Depth)] = a;
        visit(std::span<const int>(chain.data(),
                                   static_cast<std::size_t>(N)));
      }
    }
    tc.chain_candidates += cands;
    tc.accepted += acc;
  }
}

/// for_each_tuple's home-cell loop for tuple length N.
template <int N, class Visitor>
void for_each_tuple_n(const CellDomain& dom, const CompiledPattern& cp,
                      double rcut, int z_begin, int z_end, Visitor& visit,
                      TupleCounters& tc, std::uint64_t* cell_cost) {
  const double rcut2 = rcut * rcut;
  const Int3 base = dom.owned_base();
  const Int3 od = dom.owned_dims();
  // cell_index(home + v) == cell_index(home) + slot_off[slot of v] for
  // every home cell, so each distinct offset's cell range is resolved
  // with one integer add per home cell into `ranges`, which both
  // recursions read by slot.
  const Int3 e = dom.ext();
  std::vector<long long> slot_off;
  slot_off.reserve(cp.offsets().size());
  for (const Int3& v : cp.offsets()) {
    slot_off.push_back((static_cast<long long>(v.z) * e.y + v.y) * e.x + v.x);
  }
  std::vector<CellRange> ranges(slot_off.size());
  std::array<int, kMaxTupleLen> chain{};
  std::array<std::int64_t, kMaxTupleLen> cg{};
  for (int z = z_begin; z < z_end; ++z) {
    for (int y = 0; y < od.y; ++y) {
      for (int x = 0; x < od.x; ++x) {
        const long long home_idx = dom.cell_index(base + Int3{x, y, z});
        const std::uint64_t before = tc.search_steps;
        for (std::size_t sl = 0; sl < slot_off.size(); ++sl) {
          const long long ci = home_idx + slot_off[sl];
          const auto [f, l] = dom.cell_range(ci);
          const auto [f0, mid] = dom.cell_start_range(ci);
          ranges[sl] = CellRange{f, mid, l};
        }
        if (cp.merged()) {
          for (int root = 0; root < cp.root_end(); ++root) {
            extend_trie_fixed<0, N>(dom, ranges.data(), cp.nodes(), root,
                                    rcut2, chain, cg, visit, tc);
          }
        } else {
          for (const CompiledPath& path : cp.paths()) {
            extend_chain_fixed<0, N>(dom, ranges.data(), path.slot.data(),
                                     path, rcut2, chain, cg, visit, tc);
          }
        }
        if (cell_cost != nullptr) {
          cell_cost[(static_cast<std::size_t>(z) * od.y + y) * od.x + x] +=
              tc.search_steps - before;
        }
      }
    }
  }
}

}  // namespace detail

/// Enumerate accepted n-tuples whose home cell lies in the owned z-slab
/// [z_begin, z_end), in the pattern's mode (see CompiledPattern).
/// Home-cell slabs partition the tuple stream, which is how intra-rank
/// threads split the work.  `visit` receives local (binned) atom indices
/// in chain order.  `cell_cost`, when given, points at an
/// owned_dims-sized [z][y][x] array; each home cell's search steps are
/// *added* to its entry — the exact per-cell work attribution the load
/// balancer's cost field accumulates (per-home-cell work is
/// decomposition-independent, so per-cell costs sum exactly to rank
/// costs under any axis-aligned re-cut).
template <class Visitor>
void for_each_tuple(const CellDomain& dom, const CompiledPattern& cp,
                    double rcut, int z_begin, int z_end, Visitor&& visit,
                    TupleCounters* tc = nullptr,
                    std::uint64_t* cell_cost = nullptr) {
  TupleCounters local;
  TupleCounters& counters = tc ? *tc : local;
  const auto run = [&](auto n) {
    detail::for_each_tuple_n<decltype(n)::value>(
        dom, cp, rcut, z_begin, z_end, visit, counters, cell_cost);
  };
  // The constructor admits n = 2..kMaxEnumLen; a default-constructed
  // pattern (n = 0) has nothing to enumerate.
  switch (cp.n()) {
    case 2: return run(std::integral_constant<int, 2>{});
    case 3: return run(std::integral_constant<int, 3>{});
    case 4: return run(std::integral_constant<int, 4>{});
    case 5: return run(std::integral_constant<int, 5>{});
  }
}

/// Whole-domain convenience overload.
template <class Visitor>
void for_each_tuple(const CellDomain& dom, const CompiledPattern& cp,
                    double rcut, Visitor&& visit,
                    TupleCounters* tc = nullptr) {
  for_each_tuple(dom, cp, rcut, 0, dom.owned_dims().z,
                 std::forward<Visitor>(visit), tc);
}

/// Count-only convenience wrapper (in the pattern's own mode).
TupleCounters count_tuples(const CellDomain& dom, const CompiledPattern& cp,
                           double rcut);

}  // namespace scmd
