#include "graph/ecmp.h"

#include "common/check.h"

namespace jf::graph {

namespace {

// BFS from t that stops once s is discovered (see the header for why the
// distances it leaves are enough). Returns dist_t(s), or -1 if s is cut off.
int distances_to(const SortedAdjacency& adj, NodeId t, NodeId s, SearchScratch& sc) {
  sc.begin(adj.num_nodes());
  sc.dist.resize(static_cast<std::size_t>(adj.num_nodes()));
  sc.mark(t);
  sc.dist[static_cast<std::size_t>(t)] = 0;
  sc.queue[0] = t;
  std::size_t tail = 1;
  for (std::size_t head = 0; head < tail; ++head) {
    const NodeId u = sc.queue[head];
    const int d = sc.dist[static_cast<std::size_t>(u)] + 1;
    for (NodeId v : adj.neighbors(u)) {
      if (sc.seen(v)) continue;
      sc.mark(v);
      sc.dist[static_cast<std::size_t>(v)] = d;
      sc.queue[tail++] = v;
      if (v == s) return d;
    }
  }
  return -1;
}

// True iff v is a DAG successor of a node at distance d + 1.
bool on_dag(const SearchScratch& sc, NodeId v, int d) {
  return sc.seen(v) && sc.dist[static_cast<std::size_t>(v)] == d;
}

// Depth-first enumeration over the shortest-path DAG. Neighbors are visited
// in ascending id order, so enumeration order is lexicographic.
void enumerate(const SortedAdjacency& adj, NodeId t, const SearchScratch& sc,
               std::vector<NodeId>& prefix, std::size_t limit,
               std::vector<std::vector<NodeId>>& out) {
  if (out.size() >= limit) return;
  const NodeId u = prefix.back();
  if (u == t) {
    out.push_back(prefix);
    return;
  }
  const int next = sc.dist[static_cast<std::size_t>(u)] - 1;
  for (NodeId v : adj.neighbors(u)) {
    if (!on_dag(sc, v, next)) continue;
    prefix.push_back(v);
    enumerate(adj, t, sc, prefix, limit, out);
    prefix.pop_back();
    if (out.size() >= limit) return;
  }
}

}  // namespace

std::vector<std::vector<NodeId>> equal_cost_paths(const SortedAdjacency& adj, NodeId s,
                                                  NodeId t, std::size_t limit,
                                                  SearchScratch& sc) {
  check(s >= 0 && s < adj.num_nodes() && t >= 0 && t < adj.num_nodes(),
        "equal_cost_paths: bad endpoints");
  check(limit >= 1, "equal_cost_paths: limit must be >= 1");
  if (s == t) return {{s}};
  if (distances_to(adj, t, s, sc) < 0) return {};
  std::vector<std::vector<NodeId>> out;
  std::vector<NodeId> prefix{s};
  enumerate(adj, t, sc, prefix, limit, out);
  return out;
}

std::vector<std::vector<NodeId>> equal_cost_paths(const Graph& g, NodeId s, NodeId t,
                                                  std::size_t limit) {
  SearchScratch sc;
  return equal_cost_paths(SortedAdjacency(g), s, t, limit, sc);
}

namespace {
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

std::vector<NodeId> ecmp_walk(const SortedAdjacency& adj, NodeId s, NodeId t,
                              std::uint64_t flow_key, int width, SearchScratch& sc) {
  check(s >= 0 && s < adj.num_nodes() && t >= 0 && t < adj.num_nodes(),
        "ecmp_walk: bad endpoints");
  check(width >= 1, "ecmp_walk: width must be >= 1");
  if (s == t) return {s};
  if (distances_to(adj, t, s, sc) < 0) return {};

  std::vector<NodeId> path{s};
  NodeId u = s;
  while (u != t) {
    // Successors on the shortest-path DAG, in id order (hardware installs a
    // deterministic subset of at most `width` next hops per destination).
    const int d = sc.dist[static_cast<std::size_t>(u)] - 1;
    const auto nbrs = adj.neighbors(u);
    std::uint64_t usable = 0;
    for (NodeId v : nbrs) {
      if (on_dag(sc, v, d) && ++usable == static_cast<std::uint64_t>(width)) break;
    }
    ensure(usable > 0, "ecmp_walk: DAG descent failed");
    // Per-hop hash over (flow, current switch), as ECMP hardware computes.
    std::uint64_t pick = mix64(flow_key ^ (static_cast<std::uint64_t>(u) << 32)) % usable;
    for (NodeId v : nbrs) {
      if (!on_dag(sc, v, d)) continue;
      if (pick-- == 0) {
        u = v;
        break;
      }
    }
    path.push_back(u);
  }
  return path;
}

}  // namespace jf::graph
