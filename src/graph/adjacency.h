// Shared inputs of the path kernels (graph/yen.h, graph/ecmp.h): a sorted,
// read-only adjacency view built once per graph, and reusable BFS scratch.
//
// Both kernels break ties by node id: a search visits neighbors in
// ascending id order, and ECMP enumerates the shortest-path DAG
// lexicographically. A Graph keeps its neighbor lists in insertion order
// (expansion and rewiring reorder them), so SortedAdjacency sorts them
// once, into a CSR array that any number of threads may read at the same
// time.
//
// SearchScratch holds a search's per-node arrays for as long as the scratch
// lives, so a search allocates nothing. A search "clears" them in O(1) by
// bumping an epoch: v counts as seen only while stamp[v] == epoch. One
// scratch serves one thread; parallel callers keep one per worker slot.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace jf::graph {

// CSR snapshot of `g` with every neighbor list in ascending id order. It does
// not follow later edits of `g`.
class SortedAdjacency {
 public:
  explicit SortedAdjacency(const Graph& g);

  int num_nodes() const { return static_cast<int>(first_.size()) - 1; }

  std::span<const NodeId> neighbors(NodeId v) const {
    return {nbr_.data() + first_[static_cast<std::size_t>(v)],
            nbr_.data() + first_[static_cast<std::size_t>(v) + 1]};
  }

 private:
  std::vector<std::size_t> first_;  // row offsets, num_nodes + 1 entries
  std::vector<NodeId> nbr_;
};

// Per-thread search state for repeated searches over one node count.
// begin() sizes the arrays every search uses; each kernel sizes the arrays
// only it reads (resize is a no-op once they fit), so a one-off ECMP walk
// allocates three arrays, not Yen's whole set.
struct SearchScratch {
  std::vector<std::uint32_t> stamp;  // stamp[v] == epoch <=> v seen this search
  std::vector<NodeId> queue;         // flat FIFO: every node enters at most once
  std::uint32_t epoch = 0;

  std::vector<int> dist;  // ECMP: distance to t, valid where seen

  std::vector<NodeId> parent;     // Yen: BFS parent, valid where seen
  std::vector<char> hop_blocked;  // Yen: first hops out of the spur it may not take
  std::vector<int> to_t;          // Yen: unmasked distance to the pair's target
  // Yen: bit r of dead_bits[v] is set (while dead_stamp[v] == epoch) once no
  // r-step walk is known to lead from v to the target in the masked graph.
  std::vector<std::uint32_t> dead_stamp;
  std::vector<std::uint64_t> dead_bits;
  std::vector<NodeId> path;  // Yen: the last spur search's path
  // Spur searches Yen has run with this scratch (routing.spur_searches).
  std::int64_t spur_searches = 0;

  // Starts a new search over `num_nodes` nodes: every node becomes unseen.
  // A new node count also drops the kernel-specific arrays, so no stale
  // stamp can outlive the graph it was made for.
  void begin(int num_nodes);
  bool seen(NodeId v) const { return stamp[static_cast<std::size_t>(v)] == epoch; }
  void mark(NodeId v) { stamp[static_cast<std::size_t>(v)] = epoch; }
};

}  // namespace jf::graph
