#include "graph/adjacency.h"

#include <algorithm>

namespace jf::graph {

SortedAdjacency::SortedAdjacency(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  first_.resize(n + 1, 0);
  nbr_.reserve(2 * g.num_edges());
  for (std::size_t v = 0; v < n; ++v) {
    const auto& row = g.neighbors(static_cast<NodeId>(v));
    nbr_.insert(nbr_.end(), row.begin(), row.end());
    std::sort(nbr_.begin() + static_cast<std::ptrdiff_t>(first_[v]), nbr_.end());
    first_[v + 1] = nbr_.size();
  }
}

void SearchScratch::begin(int num_nodes) {
  const auto n = static_cast<std::size_t>(num_nodes);
  if (stamp.size() != n) {
    stamp.assign(n, 0);
    queue.assign(n, -1);
    epoch = 0;
    dist.clear();
    parent.clear();
    hop_blocked.clear();
    to_t.clear();
    dead_stamp.clear();
    dead_bits.clear();
  }
  if (++epoch == 0) {  // wrapped: stale stamps could alias the new epoch
    std::fill(stamp.begin(), stamp.end(), 0);
    std::fill(dead_stamp.begin(), dead_stamp.end(), 0);
    epoch = 1;
  }
}

}  // namespace jf::graph
