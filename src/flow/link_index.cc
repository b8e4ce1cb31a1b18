#include "flow/link_index.h"

#include <algorithm>

#include "common/check.h"

namespace jf::flow {

LinkIndex::LinkIndex(const graph::Graph& g) : num_nodes_(g.num_nodes()) {
  base_.resize(static_cast<std::size_t>(num_nodes_));
  int next = 0;
  for (const auto& e : g.edges()) {
    base_[e.a].emplace_back(e.b, next);
    next += 2;
    ++num_edges_;
  }
}

int LinkIndex::id(graph::NodeId u, graph::NodeId v) const {
  check(u >= 0 && u < num_nodes_ && v >= 0 && v < num_nodes_ && u != v,
        "LinkIndex::id: bad endpoints");
  const graph::NodeId lo = std::min(u, v), hi = std::max(u, v);
  for (const auto& [nbr, base] : base_[lo]) {
    if (nbr == hi) return u == lo ? base : base + 1;
  }
  check(false, "LinkIndex::id: edge does not exist");
  return -1;
}

std::vector<int> LinkIndex::path_links(std::span<const graph::NodeId> path) const {
  std::vector<int> links;
  if (path.size() < 2) return links;
  links.reserve(path.size() - 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) links.push_back(id(path[i], path[i + 1]));
  return links;
}

}  // namespace jf::flow
