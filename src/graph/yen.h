// Yen's loopless k-shortest-paths algorithm (Yen 1971), unit edge weights.
//
// This is the path-computation primitive behind the paper's k-shortest-path
// routing (§5): with k = 8 it supplies the longer-than-shortest paths that
// ECMP cannot use. Paths are simple (loopless), returned sorted by
// (hop count, lexicographic node sequence), and deterministic for a given
// graph, which makes routing tables reproducible.
//
// Tie-breaking. Every search returns the lexicographically smallest
// shortest path of its masked graph. A BFS that visits neighbors in
// ascending id order and keeps the first parent that discovers a node
// returns exactly that path: by induction over BFS levels, each node's tree
// path is its smallest shortest path, and queue order is the order of those
// paths. The id order comes from a SortedAdjacency (graph/adjacency.h)
// built once per graph. The PathGolden.* tests pin the resulting path sets.
//
// Spur searches run depth-first first. One full BFS from t per pair gives
// every node's unmasked distance to t. For the spur's unmasked distance d
// and lengths L = d, d + 1, d + 2, a DFS in ascending id order looks for a
// walk of exactly L steps from the spur to t that avoids the blocked nodes,
// the blocked first hops and the spur itself, pruning every step to a node
// more than the remaining steps from t (so it cannot pass through t early
// either). The first L with such a walk is the masked distance: a shorter
// masked path would be a shorter walk, and a walk of minimal length has no
// repeated node. The DFS takes the smallest id at each step, so the first
// walk it completes at that L is the smallest shortest path, the one the
// BFS would return. A (node, steps left) pair that failed once fails again
// within the same search, so failures are memoized as per-node bitmasks and
// each length costs at most one pass over the edges. When no walk exists up
// to d + 2 (or d + 2 reaches 64 steps), the BFS answers, early-exiting as
// soon as it discovers t.
//
// Scratch. Searches reuse one SearchScratch: "seen" and "dead" are epoch
// stamps, the queue is a flat array, and nothing is allocated per spur
// search beyond the candidate path itself.
//
// Blocked edges. For spur node p[i] of the previous path, Yen blocks the
// edge {p[i], p[i+1]} of every accepted path p that shares the root
// p[0..i]. Each such edge has the spur itself as one endpoint, and the spur
// is the search's source. Its direction spur -> p[i+1] is the only one a
// search could use: the reverse p[i+1] -> spur ends at a node already seen
// at distance 0 (the DFS never re-enters the spur). So the blocked set is
// exactly a set of forbidden first hops out of the spur, kept as per-node
// marks (SearchScratch::hop_blocked) that are cleared after the search.
// The root nodes p[0..i-1] are blocked by stamping them seen before the
// search starts.
#pragma once

#include <vector>

#include "graph/adjacency.h"
#include "graph/graph.h"

namespace jf::graph {

// Up to `k` distinct loopless shortest paths from s to t (node sequences
// including both endpoints). Fewer are returned when fewer exist. s == t
// yields one trivial path {s}. Unreachable t yields an empty result.
// Adds the number of spur searches run to scratch.spur_searches.
std::vector<std::vector<NodeId>> k_shortest_paths(const SortedAdjacency& adj, NodeId s,
                                                  NodeId t, int k, SearchScratch& scratch);

// One-off form: builds the sorted view and scratch for this call only.
std::vector<std::vector<NodeId>> k_shortest_paths(const Graph& g, NodeId s, NodeId t, int k);

}  // namespace jf::graph
