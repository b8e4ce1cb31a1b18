// Tests for the k-shortest-paths and ECMP kernels and the Kernighan-Lin
// bisection heuristic — including property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "common/rng.h"
#include "graph/adjacency.h"
#include "graph/algorithms.h"
#include "graph/ecmp.h"
#include "graph/partition.h"
#include "graph/yen.h"
#include "topo/degree_diameter.h"
#include "topo/fattree.h"
#include "topo/jellyfish.h"
#include "topo/swdc.h"
#include "topo/twolayer.h"

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
// The kernels read a sorted adjacency, reuse epoch-stamped scratch, list
// paths by one DFS per length over lazily labeled distances, and fall back
// to a Yen that keeps its blocked edges as first-hop marks and searches
// spurs depth-first before BFS. The reference versions below are the
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

// Every topology family the evaluator ships, at k = 1, 8 and 64 (64 asks
// for paths up to several hops past the shortest): the DFS alone must
// answer every pair, so this also pins that its step budget fits them.
TEST(PathKernels, MatchReferenceOnShippedFamilies) {
  std::vector<std::pair<std::string, Graph>> families;
  {
    Rng rng(4);
    topo::Topology jf = topo::build_jellyfish(
        {.num_switches = 245, .ports_per_switch = 14, .network_degree = 11}, rng);
    families.emplace_back("jellyfish 245/14", jf.switches());
    topo::fail_random_links(jf, 0.6, rng);
    families.emplace_back("jellyfish 245/14, 60% links failed", jf.switches());
  }
  families.emplace_back("fat-tree k=8", topo::build_fattree(8).switches());
  families.emplace_back("fat-tree k=14", topo::build_fattree(14).switches());
  for (const auto& [lattice, name] :
       {std::pair{topo::SwdcLattice::kRing, "swdc ring"},
        std::pair{topo::SwdcLattice::kTorus2D, "swdc torus"},
        std::pair{topo::SwdcLattice::kHexTorus3D, "swdc hex"}}) {
    Rng rng(6);
    const topo::SwdcParams params{.lattice = lattice,
                                  .num_switches = topo::swdc_feasible_size(lattice, 128),
                                  .degree = 6,
                                  .ports_per_switch = 7};
    families.emplace_back(name, topo::build_swdc(params, rng).switches());
  }
  {
    Rng rng(7);
    const topo::TwoLayerParams params{.num_containers = 4,
                                      .switches_per_container = 20,
                                      .ports_per_switch = 12,
                                      .network_degree = 8,
                                      .servers_per_switch = 4};
    families.emplace_back("two-layer", topo::build_two_layer_jellyfish(params, rng).switches());
  }
  families.emplace_back("petersen", topo::petersen());
  families.emplace_back("hoffman-singleton", topo::hoffman_singleton());

  for (const auto& [name, g] : families) {
    const SortedAdjacency adj(g);
    SearchScratch scratch;
    const int n = g.num_nodes();
    // Spread pairs, plus each node with one neighbor u (failed links leave
    // some) to and from u and u's other neighbors: pairs with fewer than k
    // simple paths, whose DFS must see that no longer path exists.
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (int i = 0; i < 12; ++i) pairs.emplace_back((i * 37) % n, (i * 101 + 7) % n);
    for (NodeId v = 0; v < n; ++v) {
      if (g.neighbors(v).size() != 1) continue;
      const NodeId u = g.neighbors(v).front();
      pairs.emplace_back(v, u);
      pairs.emplace_back(u, v);
      for (NodeId w : g.neighbors(u)) {
        if (w == v) continue;
        pairs.emplace_back(v, w);
        pairs.emplace_back(w, v);
      }
    }
    for (int k : {1, 8, 64}) {
      for (const auto& [s, t] : pairs) {
        ASSERT_EQ(k_shortest_paths(adj, s, t, k, scratch), ref::yen(g, s, t, k))
            << name << ": " << s << "->" << t << " k=" << k;
        ASSERT_EQ(equal_cost_paths(adj, s, t, static_cast<std::size_t>(k), scratch),
                  ref::ecmp(g, s, t, static_cast<std::size_t>(k)))
            << name << ": " << s << "->" << t << " limit=" << k;
      }
    }
    // The step budget fits every pair from a quarter of the sources.
    for (int k : {8, 64}) {
      for (NodeId s = 0; s < n; s += 4) {
        for (NodeId t = 0; t < n; ++t) (void)k_shortest_paths(adj, s, t, k, scratch);
      }
    }
    EXPECT_EQ(scratch.ksp_fallbacks, 0) << name;
  }
}

// A 100-node path with a K5 hanging off each path node by one edge: the
// path's pairs have one simple path, and at every longer length the DFS
// wanders into each K5 before it backs out. The step budget hands these
// pairs to Yen, whose answer must still match the reference, and it keeps
// the kernel's time in proportion to Yen's (without it, the DFS runs every
// length up to the 63-hop limit, about ten times longer here).
TEST(PathKernels, DeadEndsFallBackToYen) {
  Graph g(600);
  for (NodeId v = 0; v + 1 < 100; ++v) g.add_edge(v, v + 1);
  for (NodeId v = 0; v < 100; ++v) {
    const NodeId base = 100 + 5 * v;
    for (NodeId a = 0; a < 5; ++a) {
      for (NodeId b = a + 1; b < 5; ++b) g.add_edge(base + a, base + b);
    }
    g.add_edge(v, base);
  }
  const SortedAdjacency adj(g);
  SearchScratch scratch;
  constexpr int k = 8;
  // Path-to-path, path-to-K5 and K5-to-K5 pairs, all under 64 hops apart.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId i = 0; i < 30; ++i) {
    const NodeId a = (i * 7) % 60;
    const NodeId b = a + 1 + (i * 13) % 40;
    pairs.emplace_back(i % 3 == 0 ? a : 100 + 5 * a + i % 5,
                       i % 3 == 2 ? b : 100 + 5 * b + (i + 2) % 5);
  }

  using Clock = std::chrono::steady_clock;
  std::vector<std::vector<std::vector<NodeId>>> want;
  const auto t0 = Clock::now();
  for (const auto& [s, t] : pairs) want.push_back(ref::yen(g, s, t, k));
  const auto ref_time = Clock::now() - t0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    ASSERT_EQ(k_shortest_paths(adj, s, t, k, scratch), want[i]) << s << "->" << t;
  }
  EXPECT_GT(scratch.ksp_fallbacks, 0);
  // The budget bounds each pair's DFS: at most kKspStepsPerHop * k * (d + 2)
  // steps, d <= 63 here.
  EXPECT_LE(scratch.dfs_steps,
            static_cast<std::int64_t>(pairs.size()) * kKspStepsPerHop * k * (63 + 2));

  // ref::yen is the plain Yen loop with a fresh BFS per spur. The kernel,
  // budgeted DFS and fallback included, takes about 5% of its time here
  // (without the budget, about half); the bound is a quarter, on the best
  // of five passes so that one preemption cannot fail the test.
  auto best = Clock::duration::max();
  for (int pass = 0; pass < 5; ++pass) {
    const auto p0 = Clock::now();
    for (const auto& [s, t] : pairs) (void)k_shortest_paths(adj, s, t, k, scratch);
    best = std::min(best, Clock::now() - p0);
  }
  EXPECT_LT(best * 4, ref_time);
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
