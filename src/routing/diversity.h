// Path-diversity accounting (paper Fig. 9).
//
// The paper's key routing observation: under random-permutation traffic on
// Jellyfish, ECMP leaves most links on very few distinct paths (~55% of
// links on <= 2), while 8-shortest-path routing spreads load widely (only
// ~6% of links on <= 2 paths). This module counts, for every *directed*
// link (each cable is two links, one per direction), how many distinct
// flow-paths traverse it under a routing scheme.
#pragma once

#include <vector>

#include "flow/link_index.h"
#include "routing/path_provider.h"

namespace jf::routing {

// For each directed switch link, the number of distinct paths that cross it,
// aggregated over the path sets of the given switch pairs (one pair per
// permutation flow; duplicate pairs contribute their paths again, matching
// per-flow path sets). Output is indexed by flow::LinkIndex ids.
std::vector<int> link_path_counts(const flow::LinkIndex& links,
                                  const std::vector<std::pair<graph::NodeId, graph::NodeId>>& pairs,
                                  PathProvider& routes);

// Sorted ascending copy (the "rank of link" x-axis of Fig. 9).
std::vector<int> ranked(std::vector<int> counts);

// Fraction of links with count <= bound (e.g. the paper's "55% of links are
// on no more than 2 paths under ECMP").
double fraction_at_or_below(const std::vector<int>& counts, int bound);

}  // namespace jf::routing
