// Tests for Yen's k-shortest paths, ECMP enumeration and the
// Kernighan-Lin bisection heuristic — including property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

#include "common/rng.h"
#include "graph/adjacency.h"
#include "graph/algorithms.h"
#include "graph/ecmp.h"
#include "graph/partition.h"
#include "graph/yen.h"
#include "topo/jellyfish.h"

namespace jf::graph {
namespace {

bool is_simple_path(const Graph& g, const std::vector<NodeId>& p) {
  std::set<NodeId> seen(p.begin(), p.end());
  if (seen.size() != p.size()) return false;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    if (!g.has_edge(p[i], p[i + 1])) return false;
  }
  return true;
}

Graph diamond() {
  // 0 - {1,2} - 3 plus a long detour 0-4-5-3.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(0, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  return g;
}

TEST(Yen, FindsAllPathsSortedByLength) {
  auto g = diamond();
  auto paths = k_shortest_paths(g, 0, 3, 10);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].size(), 3u);  // 0-1-3
  EXPECT_EQ(paths[1].size(), 3u);  // 0-2-3
  EXPECT_EQ(paths[2].size(), 4u);  // 0-4-5-3
  for (const auto& p : paths) {
    EXPECT_TRUE(is_simple_path(g, p));
    EXPECT_EQ(p.front(), 0);
    EXPECT_EQ(p.back(), 3);
  }
}

TEST(Yen, RespectsK) {
  auto g = diamond();
  EXPECT_EQ(k_shortest_paths(g, 0, 3, 2).size(), 2u);
  EXPECT_EQ(k_shortest_paths(g, 0, 3, 1).size(), 1u);
}

TEST(Yen, TrivialAndUnreachable) {
  auto g = diamond();
  EXPECT_EQ(k_shortest_paths(g, 2, 2, 3), std::vector<std::vector<NodeId>>{{2}});
  Graph disc(3);
  disc.add_edge(0, 1);
  EXPECT_TRUE(k_shortest_paths(disc, 0, 2, 3).empty());
  EXPECT_THROW(k_shortest_paths(g, 0, 3, 0), std::invalid_argument);
}

TEST(Yen, PathsAreDistinct) {
  Rng rng(17);
  auto topo = topo::build_jellyfish(
      {.num_switches = 30, .ports_per_switch = 10, .network_degree = 6}, rng);
  const auto& g = topo.switches();
  for (NodeId t = 1; t <= 8; ++t) {
    auto paths = k_shortest_paths(g, 0, t, 8);
    std::set<std::vector<NodeId>> uniq(paths.begin(), paths.end());
    EXPECT_EQ(uniq.size(), paths.size());
    for (std::size_t i = 1; i < paths.size(); ++i) {
      EXPECT_LE(paths[i - 1].size(), paths[i].size());  // sorted by length
    }
    for (const auto& p : paths) EXPECT_TRUE(is_simple_path(g, p));
  }
}

TEST(Yen, DeterministicAcrossCalls) {
  Rng rng(18);
  auto topo = topo::build_jellyfish(
      {.num_switches = 20, .ports_per_switch = 8, .network_degree = 5}, rng);
  auto a = k_shortest_paths(topo.switches(), 0, 7, 6);
  auto b = k_shortest_paths(topo.switches(), 0, 7, 6);
  EXPECT_EQ(a, b);
}

TEST(Ecmp, EnumeratesEqualCostPaths) {
  auto g = diamond();
  auto paths = equal_cost_paths(g, 0, 3, 16);
  ASSERT_EQ(paths.size(), 2u);  // only the two 2-hop paths are shortest
  for (const auto& p : paths) EXPECT_EQ(p.size(), 3u);
}

TEST(Ecmp, RespectsLimit) {
  auto g = diamond();
  EXPECT_EQ(equal_cost_paths(g, 0, 3, 1).size(), 1u);
}

TEST(Ecmp, AllPathsAreShortest) {
  Rng rng(19);
  auto topo = topo::build_jellyfish(
      {.num_switches = 40, .ports_per_switch = 10, .network_degree = 6}, rng);
  const auto& g = topo.switches();
  auto dist = bfs_distances(g, 5);
  for (NodeId t : {0, 10, 20, 30}) {
    if (t == 5) continue;
    auto paths = equal_cost_paths(g, 5, t, 64);
    for (const auto& p : paths) {
      EXPECT_EQ(static_cast<int>(p.size()) - 1, dist[t]);
      EXPECT_TRUE(is_simple_path(g, p));
    }
  }
}

// --- differential tests against the plain algorithms ---
//
// The kernels read a sorted adjacency, reuse epoch-stamped scratch, keep
// Yen's blocked edges as first-hop marks and search spurs depth-first
// before falling back to BFS. The reference versions below are the
// textbook forms — a fresh BFS per search over id-sorted neighbor copies,
// an explicit set of blocked undirected edges, full distance arrays — and
// every kernel must return exactly what they return.
namespace ref {

using Path = std::vector<NodeId>;

std::vector<NodeId> sorted_neighbors(const Graph& g, NodeId u) {
  std::vector<NodeId> nbrs(g.neighbors(u).begin(), g.neighbors(u).end());
  std::sort(nbrs.begin(), nbrs.end());
  return nbrs;
}

Path masked_bfs(const Graph& g, NodeId s, NodeId t, const std::vector<char>& node_blocked,
                const std::set<std::pair<NodeId, NodeId>>& edge_blocked) {
  std::vector<NodeId> parent(static_cast<std::size_t>(g.num_nodes()), -1);
  std::vector<char> seen(static_cast<std::size_t>(g.num_nodes()), 0);
  std::vector<NodeId> queue{s};
  seen[s] = 1;
  for (std::size_t head = 0; head < queue.size() && !seen[t]; ++head) {
    const NodeId u = queue[head];
    for (NodeId v : sorted_neighbors(g, u)) {
      if (seen[v] || node_blocked[v] || edge_blocked.count({std::min(u, v), std::max(u, v)})) {
        continue;
      }
      seen[v] = 1;
      parent[v] = u;
      queue.push_back(v);
    }
  }
  if (!seen[t]) return {};
  Path path;
  for (NodeId cur = t; cur != -1; cur = parent[cur]) path.push_back(cur);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<Path> yen(const Graph& g, NodeId s, NodeId t, int k) {
  if (s == t) return {{s}};
  auto less = [](const Path& x, const Path& y) {
    return x.size() != y.size() ? x.size() < y.size() : x < y;
  };
  std::set<Path, decltype(less)> candidates(less);
  std::vector<char> node_blocked(static_cast<std::size_t>(g.num_nodes()), 0);
  Path first = masked_bfs(g, s, t, node_blocked, {});
  if (first.empty()) return {};
  std::vector<Path> result{first};
  while (static_cast<int>(result.size()) < k) {
    const Path prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      const Path root(prev.begin(), prev.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      std::set<std::pair<NodeId, NodeId>> edge_blocked;
      for (const Path& p : result) {
        if (p.size() > i + 1 && std::equal(root.begin(), root.end(), p.begin())) {
          edge_blocked.insert({std::min(p[i], p[i + 1]), std::max(p[i], p[i + 1])});
        }
      }
      std::fill(node_blocked.begin(), node_blocked.end(), 0);
      for (std::size_t j = 0; j < i; ++j) node_blocked[root[j]] = 1;
      Path spur = masked_bfs(g, prev[i], t, node_blocked, edge_blocked);
      if (spur.empty()) continue;
      Path total(root.begin(), root.end() - 1);
      total.insert(total.end(), spur.begin(), spur.end());
      if (std::find(result.begin(), result.end(), total) == result.end()) {
        candidates.insert(total);
      }
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

void enumerate(const Graph& g, NodeId t, const std::vector<int>& dist, Path& prefix,
               std::size_t limit, std::vector<Path>& out) {
  if (out.size() >= limit) return;
  const NodeId u = prefix.back();
  if (u == t) {
    out.push_back(prefix);
    return;
  }
  for (NodeId v : sorted_neighbors(g, u)) {
    if (dist[v] != dist[u] - 1) continue;
    prefix.push_back(v);
    enumerate(g, t, dist, prefix, limit, out);
    prefix.pop_back();
  }
}

std::vector<Path> ecmp(const Graph& g, NodeId s, NodeId t, std::size_t limit) {
  if (s == t) return {{s}};
  const std::vector<int> dist = bfs_distances(g, t);
  if (dist[s] == kUnreachable) return {};
  std::vector<Path> out;
  Path prefix{s};
  enumerate(g, t, dist, prefix, limit, out);
  return out;
}

}  // namespace ref

// Random graphs from dense to sparse: the sparse ones have long shortest
// paths (spur searches past the depth-first slack), dead ends and cut-off
// pairs. One scratch serves every graph, size changes included.
TEST(PathKernels, MatchReferenceOnRandomGraphs) {
  Rng rng(31);
  SearchScratch scratch;
  int pairs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = rng.uniform_int(2, 40);
    const double p = rng.uniform_real(0.02, 0.5);
    Graph g(n);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        if (rng.bernoulli(p)) rng.bernoulli(0.5) ? g.add_edge(a, b) : g.add_edge(b, a);
      }
    }
    const SortedAdjacency adj(g);
    for (int q = 0; q < 12; ++q) {
      const auto s = static_cast<NodeId>(rng.uniform_index(static_cast<std::uint64_t>(n)));
      const auto t = static_cast<NodeId>(rng.uniform_index(static_cast<std::uint64_t>(n)));
      const int k = rng.uniform_int(1, 12);
      ASSERT_EQ(k_shortest_paths(adj, s, t, k, scratch), ref::yen(g, s, t, k))
          << "trial " << trial << " pair " << s << "->" << t << " k=" << k;
      ASSERT_EQ(equal_cost_paths(adj, s, t, static_cast<std::size_t>(k), scratch),
                ref::ecmp(g, s, t, static_cast<std::size_t>(k)))
          << "trial " << trial << " pair " << s << "->" << t << " limit=" << k;
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 720);
}

// 150-node rings, bare and with chords every 50 nodes: shortest paths of
// up to 75 hops, and Yen's later paths run the long way round. The bare
// ring's far pairs are past the 64-step limit of the depth-first spur
// search, so only the BFS fallback answers them.
TEST(PathKernels, MatchReferenceOnLongRings) {
  for (bool chords : {false, true}) {
    Graph g(150);
    for (NodeId v = 0; v < 150; ++v) g.add_edge(v, (v + 1) % 150);
    if (chords) {
      g.add_edge(0, 50);
      g.add_edge(50, 100);
    }
    SearchScratch scratch;
    const SortedAdjacency adj(g);
    for (const auto& [s, t] : std::vector<std::pair<NodeId, NodeId>>{
             {0, 75}, {10, 140}, {25, 120}, {3, 4}, {60, 149}, {140, 66}}) {
      EXPECT_EQ(k_shortest_paths(adj, s, t, 6, scratch), ref::yen(g, s, t, 6))
          << s << "->" << t << (chords ? " (chords)" : "");
      EXPECT_EQ(equal_cost_paths(adj, s, t, 6, scratch), ref::ecmp(g, s, t, 6))
          << s << "->" << t << (chords ? " (chords)" : "");
    }
  }
}

TEST(Partition, BalancedAndCountsCut) {
  // Two K4 cliques joined by one edge: optimal bisection cuts exactly 1.
  Graph g(8);
  for (int base : {0, 4}) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) g.add_edge(base + i, base + j);
    }
  }
  g.add_edge(0, 4);
  Rng rng(29);
  auto result = min_bisection_estimate(g, rng, 10);
  EXPECT_EQ(result.cut_edges, 1u);
  int a = 0;
  for (bool s : result.side) a += s ? 1 : 0;
  EXPECT_EQ(a, 4);
}

TEST(Partition, CutNeverBelowTrueMin) {
  // KL is a heuristic upper bound on the minimum bisection; on a cycle the
  // optimum balanced cut is 2.
  Graph g(8);
  for (int i = 0; i < 8; ++i) g.add_edge(i, (i + 1) % 8);
  Rng rng(31);
  auto result = min_bisection_estimate(g, rng, 10);
  EXPECT_GE(result.cut_edges, 2u);
  EXPECT_EQ(result.cut_edges, 2u);  // KL finds the optimum here
}

}  // namespace
}  // namespace jf::graph
