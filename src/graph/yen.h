// k shortest simple paths (KSP), unit edge weights.
//
// This is the path-computation primitive behind the paper's k-shortest-path
// routing (§5): with k = 8 it supplies the longer-than-shortest paths that
// ECMP cannot use. Paths are simple (loopless), returned sorted by
// (hop count, lexicographic node sequence), and deterministic for a given
// graph, which makes routing tables reproducible.
//
// What is returned. The answer is Yen's (Yen 1971) with (hop count,
// lexicographic) tie-breaks: every spur search returns the smallest path of
// its masked graph in that order, and the candidate pool hands out its
// smallest. That is exactly the first k simple s-t paths in (hop count,
// lexicographic) order, or all of them if fewer exist. The first path is
// the smallest of all. Say Yen has accepted the first j paths and P is the
// (j+1)-th. Among the accepted paths, let i + 1 nodes be the longest prefix
// any of them shares with P, and Q the last accepted with that prefix (Q
// cannot end inside P, so Q has a node i + 1). Yen spurred Q at node i
// right after accepting it. That search ranged over the paths with P's
// root, avoiding the root's other nodes and every next hop that a path
// accepted by then with this root takes; P is one of them (it is simple,
// and a shared next hop would be a longer shared prefix). Whole paths with
// one root compare as their spurs do, so the search found some C <= P. C
// takes none of those next hops, so had it been accepted it would have
// been after Q with P's root (or a longer shared prefix), against the
// choice of Q. So C is still a candidate; every candidate is an unaccepted
// simple path, hence >= P; so C = P is the smallest and is accepted next.
//
// One DFS instead. For L = d, d + 1, ... (d = dist(s, t)) a DFS from s
// that tries neighbors in ascending id order lists the simple s-t paths of
// exactly L hops in lexicographic order, as long as it only prunes steps
// that cannot complete. It never re-enters a node of the current path,
// enters t only on the last step, and steps to w with r steps left only if
// dist(w, t) <= r - 1. The distances come from a BFS from t that labels
// only the levels a length reads (graph/adjacency.h); an unlabeled node is
// farther than r - 1. Lengths ascending, lexicographic within a length, is
// the order above, so the first k paths listed are Yen's answer. When the
// BFS has labeled t's whole component and L reaches its node count, or
// when a length pruned no step as too far from t (so its DFS saw every
// simple path out of s that avoids t, none longer than L - 1 hops), no
// longer simple path exists and the search ends with fewer than k. A path
// holding every neighbor of t cannot reach t in two or more further steps
// at any length, so the DFS backs out of it without counting a prune (t
// hanging off s alone would otherwise send every length on a tour of the
// graph).
//
// Fallback. Deciding whether a simple path of a given length exists is
// NP-hard (it contains the Hamiltonian path problem), and dead-end pockets
// (say, a long path with a clique hanging off each node) make the DFS
// wander through them at every length. So a pair's DFS may take at most
// kKspStepsPerHop * k * (d + 2) steps and reach at most kKspMaxDfsHops
// hops; past either, the pair reruns as Yen's algorithm, which returns the
// same paths in polynomial time (routing.ksp_fallbacks counts these). On
// the shipped fabrics no pair falls back; the PathKernels tests check it.
//
// Yen's spur searches (the fallback). Every spur search returns the
// lexicographically smallest shortest path of its masked graph. A BFS that
// visits neighbors in ascending id order and keeps the first parent that
// discovers a node returns exactly that path: by induction over BFS levels,
// each node's tree path is its smallest shortest path, and queue order is
// the order of those paths. Before the BFS, a DFS in id order looks for a
// walk of exactly L steps from the spur to t that avoids the blocked nodes,
// the blocked first hops and the spur itself, for L = d', d' + 1, d' + 2
// (d' the spur's unmasked distance). The first L with such a walk is the
// masked distance: a shorter masked path would be a shorter walk, and a
// walk of minimal length has no repeated node. A (node, steps left) pair
// that failed once fails again within the same search, so failures are
// memoized as per-node bitmasks. For spur node p[i] of the previous path,
// Yen blocks the edge {p[i], p[i+1]} of every accepted path p that shares
// the root p[0..i]. Each such edge leaves the spur, the search's source,
// and its reverse ends at a node already seen, so the blocked edges are
// kept as forbidden first hops out of the spur (SearchScratch::hop_blocked).
// The root nodes p[0..i-1] are stamped seen before the search starts.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/adjacency.h"
#include "graph/graph.h"

namespace jf::graph {

// The DFS's step budget per path asked for and per hop of d + 2, and its
// longest length. The budget is 2-3 times the most any pair of the shipped
// fabrics takes (fat-tree k=8 at k=64, Jellyfish with 60% of links failed).
inline constexpr std::int64_t kKspStepsPerHop = 16;
inline constexpr int kKspMaxDfsHops = 63;

// Up to `k` distinct loopless shortest paths from s to t (node sequences
// including both endpoints). Fewer are returned when fewer exist. s == t
// yields one trivial path {s}. Unreachable t yields an empty result.
// Adds its DFS steps to scratch.dfs_steps, and 1 to scratch.ksp_fallbacks
// if the pair fell back to Yen's algorithm.
std::vector<std::vector<NodeId>> k_shortest_paths(const SortedAdjacency& adj, NodeId s,
                                                  NodeId t, int k, SearchScratch& scratch);

// One-off form: builds the sorted view and scratch for this call only.
std::vector<std::vector<NodeId>> k_shortest_paths(const Graph& g, NodeId s, NodeId t, int k);

// How a DFS at one length ended.
enum class LengthScan {
  kListed,      // listed the length's paths, or reached k
  kNoLonger,    // listed them, and pruned no step as too far from t: the
                // DFS saw every simple path from s that avoids t, so no
                // longer s-t path exists
  kOutOfSteps,  // passed the step limit; `out` is partial
};

// The DFS above at one length, shared with ECMP (graph/ecmp.h): appends the
// simple s-t paths of exactly `len` >= 1 hops to `out`, in lexicographic
// order, until `out` holds `k`. The scratch's BFS must be from t with every
// node within len - 1 hops labeled, and dist(s, t) <= len. Gives up once
// scratch.dfs_steps would pass `step_limit`.
LengthScan paths_of_length(const SortedAdjacency& adj, NodeId s, NodeId t, int len,
                           std::size_t k, std::int64_t step_limit, SearchScratch& scratch,
                           std::vector<std::vector<NodeId>>& out);

}  // namespace jf::graph
