// Dense directed link ids for a switch graph, shared by every layer that
// accounts load per link (restricted MCF, path diversity, the packet
// simulator's per-link state).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"

namespace jf::flow {

// Dense ids for directed switch-to-switch links: a cable {a,b} yields two
// directed links (a->b) and (b->a).
class LinkIndex {
 public:
  explicit LinkIndex(const graph::Graph& g);

  // Directed link id for hop u -> v. Precondition: the edge exists.
  int id(graph::NodeId u, graph::NodeId v) const;

  int num_links() const { return static_cast<int>(2 * num_edges_); }

  // Converts a node path to directed link ids.
  std::vector<int> path_links(std::span<const graph::NodeId> path) const;

 private:
  int num_nodes_ = 0;
  std::size_t num_edges_ = 0;
  // edge {a<b} -> base id; (a->b) = base, (b->a) = base+1.
  std::vector<std::vector<std::pair<graph::NodeId, int>>> base_;
};

}  // namespace jf::flow
