#include "engines/check_hooks.hpp"

#include "tuples/ucp.hpp"

namespace scmd {

std::vector<std::int64_t> census_tuples(const TupleStrategy& strategy,
                                        const CellDomain& dom, int n,
                                        double rcut) {
  std::vector<std::int64_t> flat;
  const std::span<const std::int64_t> gids = dom.gids();
  for_each_tuple(dom, strategy.compiled(n), rcut,
                 [&](std::span<const int> chain) {
                   for (const int idx : chain)
                     flat.push_back(gids[static_cast<std::size_t>(idx)]);
                 });
  return flat;
}

}  // namespace scmd
