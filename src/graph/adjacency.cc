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
    parent.clear();
    hop_blocked.clear();
    dead_stamp.clear();
    dead_bits.clear();
  }
  if (++epoch == 0) {  // wrapped: stale stamps could alias the new epoch
    std::fill(stamp.begin(), stamp.end(), 0);
    std::fill(dead_stamp.begin(), dead_stamp.end(), 0);
    epoch = 1;
  }
}

void SearchScratch::start_bfs(const SortedAdjacency& adj, NodeId t) {
  const auto n = static_cast<std::size_t>(adj.num_nodes());
  if (to_t.size() != n) {
    to_t.assign(n, kUnlabeled);
    order.clear();
    order.reserve(n);
  }
  for (NodeId v : order) to_t[static_cast<std::size_t>(v)] = kUnlabeled;
  order.assign(1, t);
  expanded = 0;
  to_t[static_cast<std::size_t>(t)] = 0;
}

namespace {

// Scans the neighbors of the next labeled node, labeling the new ones.
void expand_next(const SortedAdjacency& adj, SearchScratch& sc) {
  const NodeId u = sc.order[sc.expanded++];
  const int d = sc.to_t[static_cast<std::size_t>(u)] + 1;
  for (NodeId v : adj.neighbors(u)) {
    int& dv = sc.to_t[static_cast<std::size_t>(v)];
    if (dv != SearchScratch::kUnlabeled) continue;
    dv = d;
    sc.order.push_back(v);
  }
}

}  // namespace

bool SearchScratch::label_until(const SortedAdjacency& adj, NodeId s) {
  while (to_t[static_cast<std::size_t>(s)] == kUnlabeled) {
    if (labels_complete()) return false;
    expand_next(adj, *this);
  }
  return true;
}

void SearchScratch::label_within(const SortedAdjacency& adj, int level) {
  while (!labels_complete() && to_t[static_cast<std::size_t>(order[expanded])] < level) {
    expand_next(adj, *this);
  }
}

}  // namespace jf::graph
