#include "tuples/ucp.hpp"

#include <map>
#include <string>

#include "support/error.hpp"

namespace scmd {

CompiledPattern::CompiledPattern(const Pattern& psi, Mode mode)
    : n_(psi.n()), mode_(mode) {
  SCMD_REQUIRE(!psi.empty(), "cannot compile an empty pattern");
  SCMD_REQUIRE(n_ >= 2 && n_ <= kMaxEnumLen,
               "tuple length " + std::to_string(n_) +
                   " is outside the enumerator's range 2.." +
                   std::to_string(kMaxEnumLen));
  // Slot of each distinct cell offset, in first-seen order.
  std::map<Int3, int> slot_of;
  paths_.reserve(psi.size());
  for (const Path& p : psi) {
    CompiledPath cp;
    cp.n = p.size();
    for (int k = 0; k < p.size(); ++k) {
      const Int3& v = p[k];
      const auto [it, inserted] =
          slot_of.try_emplace(v, static_cast<int>(offsets_.size()));
      if (inserted) offsets_.push_back(v);
      cp.v[static_cast<std::size_t>(k)] = v;
      cp.slot[static_cast<std::size_t>(k)] = it->second;
      halo_.lo = Int3::max(halo_.lo, -v);
      halo_.hi = Int3::max(halo_.hi, v);
    }
    cp.guard = psi.collapsed() ? p.self_reflective() : true;
    paths_.push_back(cp);
  }
  if (mode_ == Mode::kPerPath) return;

  // Merge the paths into a prefix trie, level by level, so children of
  // each node are contiguous in the pool.  `groups` carries, for each
  // node of the current level, the indices of the paths passing through
  // it.  Paths in a pattern are distinct sequences, so each leaf hosts
  // exactly one path (whose guard it inherits).
  struct Group {
    int node = -1;  // -1 for the virtual root
    std::vector<int> paths;
  };
  std::vector<Group> level;
  {
    Group root;
    root.paths.resize(paths_.size());
    for (std::size_t i = 0; i < paths_.size(); ++i)
      root.paths[i] = static_cast<int>(i);
    level.push_back(std::move(root));
  }
  for (int depth = 0; depth < n_; ++depth) {
    std::vector<Group> next;
    for (Group& g : level) {
      const int begin = static_cast<int>(nodes_.size());
      // Group this node's paths by their offset at `depth`, preserving
      // first-seen order for determinism.
      std::map<Int3, std::vector<int>> by_offset;
      std::vector<Int3> order;
      for (int pi : g.paths) {
        const Int3 v = paths_[static_cast<std::size_t>(pi)]
                           .v[static_cast<std::size_t>(depth)];
        auto [it, inserted] = by_offset.try_emplace(v);
        if (inserted) order.push_back(v);
        it->second.push_back(pi);
      }
      for (const Int3& v : order) {
        TrieNode node;
        node.v = v;
        node.slot = slot_of.at(v);
        std::vector<int>& members = by_offset[v];
        if (depth == n_ - 1) {
          SCMD_REQUIRE(members.size() == 1,
                       "duplicate path in pattern; patterns must be "
                       "duplicate-free");
          node.guard = paths_[static_cast<std::size_t>(members[0])].guard;
        }
        Group child;
        child.node = static_cast<int>(nodes_.size());
        child.paths = std::move(members);
        nodes_.push_back(node);
        next.push_back(std::move(child));
      }
      const int end = static_cast<int>(nodes_.size());
      if (g.node >= 0) {
        nodes_[static_cast<std::size_t>(g.node)].child_begin = begin;
        nodes_[static_cast<std::size_t>(g.node)].child_end = end;
      } else {
        root_end_ = end;
      }
    }
    level = std::move(next);
  }
}

long long force_set_size(const CellDomain& dom, const CompiledPattern& cp) {
  long long total = 0;
  const Int3 base = dom.owned_base();
  const Int3 od = dom.owned_dims();
  for (int z = 0; z < od.z; ++z) {
    for (int y = 0; y < od.y; ++y) {
      for (int x = 0; x < od.x; ++x) {
        const Int3 home = base + Int3{x, y, z};
        for (const CompiledPath& path : cp.paths()) {
          long long product = 1;
          for (int k = 0; k < path.n && product > 0; ++k) {
            // Level 0 draws from chain starts only, matching enumeration.
            const long long ci =
                dom.cell_index(home + path.v[static_cast<std::size_t>(k)]);
            const auto [first, last] =
                k == 0 ? dom.cell_start_range(ci) : dom.cell_range(ci);
            product *= (last - first);
          }
          total += product;
        }
      }
    }
  }
  return total;
}

TupleCounters count_tuples(const CellDomain& dom, const CompiledPattern& cp,
                           double rcut) {
  TupleCounters tc;
  for_each_tuple(dom, cp, rcut, [](std::span<const int>) {}, &tc);
  return tc;
}

}  // namespace scmd
