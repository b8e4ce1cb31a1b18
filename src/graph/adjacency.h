// Shared inputs of the path kernels (graph/yen.h, graph/ecmp.h): a sorted,
// read-only adjacency view built once per graph, and reusable search
// scratch.
//
// Both kernels break ties by node id: a search visits neighbors in
// ascending id order, so paths of one length come out lexicographically. A
// Graph keeps its neighbor lists in insertion order (expansion and rewiring
// reorder them), so SortedAdjacency sorts them once, into a CSR array that
// any number of threads may read at the same time.
//
// SearchScratch holds a search's per-node arrays for as long as the scratch
// lives, so a search allocates nothing. A search "clears" its marks in O(1)
// by bumping an epoch: v counts as seen only while stamp[v] == epoch. One
// scratch serves one thread; parallel callers keep one per worker slot.
//
// Distances to the target. Every kernel prunes with dist(v, t), from a
// level-synchronous BFS from t that labels only as deep as its caller asks
// (label_until, label_within): the KSP enumerator at length L reads labels
// up to L - 1, so on a low-diameter fabric the last, largest BFS level is
// usually never expanded. BFS queue order is nondecreasing in distance, so
// once every node closer than `level` is expanded, every node within
// `level` hops is labeled, with its final distance.
#pragma once

#include <climits>
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
// does not allocate the Yen fallback's arrays.
struct SearchScratch {
  // to_t[v] for a node the BFS from t has not labeled yet.
  static constexpr int kUnlabeled = INT_MAX;

  std::vector<std::uint32_t> stamp;  // stamp[v] == epoch <=> v seen this search
  std::vector<NodeId> queue;         // Yen spur BFS: flat FIFO, each node at most once
  std::uint32_t epoch = 0;

  // BFS from the target: to_t[v] is dist(v, t) once v is labeled, else
  // kUnlabeled. `order` lists the labeled nodes in BFS order, the first
  // `expanded` of them with their neighbors scanned.
  std::vector<int> to_t;
  std::vector<NodeId> order;
  std::size_t expanded = 0;

  std::vector<NodeId> path;           // the DFS's current path (Yen: last spur path)
  std::vector<std::uint32_t> cursor;  // DFS: next neighbor index at each depth

  std::vector<NodeId> parent;     // Yen: BFS parent, valid where seen
  std::vector<char> hop_blocked;  // Yen: first hops out of the spur it may not take
  // Yen: bit r of dead_bits[v] is set (while dead_stamp[v] == epoch) once no
  // r-step walk is known to lead from v to the target in the masked graph.
  std::vector<std::uint32_t> dead_stamp;
  std::vector<std::uint64_t> dead_bits;

  // Nodes the path DFS has stepped onto (routing.dfs_steps), and pairs
  // k_shortest_paths handed to Yen (routing.ksp_fallbacks), with this scratch.
  std::int64_t dfs_steps = 0;
  std::int64_t ksp_fallbacks = 0;

  // Starts a new search over `num_nodes` nodes: every node becomes unseen.
  // A new node count also drops the kernel-specific arrays, so no stale
  // stamp can outlive the graph it was made for.
  void begin(int num_nodes);
  bool seen(NodeId v) const { return stamp[static_cast<std::size_t>(v)] == epoch; }
  void mark(NodeId v) { stamp[static_cast<std::size_t>(v)] = epoch; }
  void unmark(NodeId v) { stamp[static_cast<std::size_t>(v)] = 0; }  // epoch is never 0

  // Starts a BFS from t: only t is labeled.
  void start_bfs(const SortedAdjacency& adj, NodeId t);
  // Labels nodes until s is; false if s is not in t's component.
  bool label_until(const SortedAdjacency& adj, NodeId s);
  // Labels every node within `level` hops of t.
  void label_within(const SortedAdjacency& adj, int level);
  // True once t's whole component is labeled.
  bool labels_complete() const { return expanded == order.size(); }
};

}  // namespace jf::graph
