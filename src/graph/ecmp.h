// Equal-cost multipath (ECMP) path enumeration.
//
// ECMP hardware hashes each flow onto one of the equal-cost *shortest* paths
// it knows, typically capped per destination (the paper evaluates 8-way and
// 64-way ECMP, §5.1 Fig. 9). This module enumerates the shortest-path set
// between two nodes, deterministically and with an enumeration cap, so the
// routing layer can model w-way ECMP faithfully.
//
// Both functions first run the BFS from t that SearchScratch keeps
// (graph/adjacency.h), stopping once it labels s, then follow the
// shortest-path DAG (u -> v iff dist_t(v) == dist_t(u) - 1) from s.
// Tie-breaking is by node id: the DAG is walked in ascending neighbor order,
// read from a SortedAdjacency built once per graph. That order fixes every
// path set and route; the PathGolden.* tests pin them.
//
// Labeling s means its whole level d - 1 is labeled, and a node u on a
// shortest s-t path has dist_t(u) <= d, so its DAG successors (at
// dist_t(u) - 1 <= d - 1) are all labeled, and no unlabeled node can pass
// for one. The shortest paths are the simple paths of exactly d hops, so
// equal_cost_paths is the k-shortest-paths DFS (graph/yen.h) at that one
// length: there every step goes one level closer to t, and every DAG node
// reaches t, so the DFS never backs out of a dead end.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/adjacency.h"
#include "graph/graph.h"

namespace jf::graph {

// Up to `limit` distinct shortest paths from s to t, enumerated in
// lexicographic order over the BFS shortest-path DAG. Empty if unreachable;
// {{s}} if s == t.
std::vector<std::vector<NodeId>> equal_cost_paths(const SortedAdjacency& adj, NodeId s,
                                                  NodeId t, std::size_t limit,
                                                  SearchScratch& scratch);

// One-off form: builds the sorted view and scratch for this call only.
std::vector<std::vector<NodeId>> equal_cost_paths(const Graph& g, NodeId s, NodeId t,
                                                  std::size_t limit);

// One ECMP route realized by per-hop hashing, the way w-way ECMP hardware
// actually forwards: at every switch the flow's hash selects among (up to)
// `width` next hops that lie on shortest paths to t. Unlike taking the
// first `width` end-to-end paths, per-hop hashing spreads flows across the
// whole shortest-path DAG (crucial in Clos fabrics, where one pair has
// (k/2)^2 equal-cost paths). Deterministic per (graph, flow_key).
// Returns the node sequence; empty if t is unreachable.
std::vector<NodeId> ecmp_walk(const SortedAdjacency& adj, NodeId s, NodeId t,
                              std::uint64_t flow_key, int width, SearchScratch& scratch);

}  // namespace jf::graph
