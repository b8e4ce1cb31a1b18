#include "graph/ecmp.h"

#include <limits>

#include "common/check.h"
#include "graph/yen.h"

namespace jf::graph {

std::vector<std::vector<NodeId>> equal_cost_paths(const SortedAdjacency& adj, NodeId s,
                                                  NodeId t, std::size_t limit,
                                                  SearchScratch& sc) {
  check(s >= 0 && s < adj.num_nodes() && t >= 0 && t < adj.num_nodes(),
        "equal_cost_paths: bad endpoints");
  check(limit >= 1, "equal_cost_paths: limit must be >= 1");
  if (s == t) return {{s}};
  sc.start_bfs(adj, t);
  if (!sc.label_until(adj, s)) return {};
  std::vector<std::vector<NodeId>> out;
  paths_of_length(adj, s, t, sc.to_t[static_cast<std::size_t>(s)], limit,
                  std::numeric_limits<std::int64_t>::max(), sc, out);
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
  sc.start_bfs(adj, t);
  if (!sc.label_until(adj, s)) return {};

  std::vector<NodeId> path{s};
  NodeId u = s;
  while (u != t) {
    // Successors on the shortest-path DAG, in id order (hardware installs a
    // deterministic subset of at most `width` next hops per destination).
    const int d = sc.to_t[static_cast<std::size_t>(u)] - 1;
    auto on_dag = [&](NodeId v) { return sc.to_t[static_cast<std::size_t>(v)] == d; };
    const auto nbrs = adj.neighbors(u);
    std::uint64_t usable = 0;
    for (NodeId v : nbrs) {
      if (on_dag(v) && ++usable == static_cast<std::uint64_t>(width)) break;
    }
    ensure(usable > 0, "ecmp_walk: DAG descent failed");
    // Per-hop hash over (flow, current switch), as ECMP hardware computes.
    std::uint64_t pick = mix64(flow_key ^ (static_cast<std::uint64_t>(u) << 32)) % usable;
    for (NodeId v : nbrs) {
      if (!on_dag(v)) continue;
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
