// Tests for routing schemes, flow-to-path hashing, and Fig. 9 diversity
// accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/digest.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "flow/link_index.h"
#include "graph/adjacency.h"
#include "graph/ecmp.h"
#include "routing/diversity.h"
#include "routing/path_provider.h"
#include "topo/fattree.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

namespace jf::routing {
namespace {

TEST(ComputePaths, EcmpPathsAreShortest) {
  Rng rng(1);
  auto topo = topo::build_jellyfish(
      {.num_switches = 30, .ports_per_switch = 10, .network_degree = 6}, rng);
  const auto& g = topo.switches();
  auto ecmp = make_path_provider(g, {"ecmp", 8})->paths(0, 15);
  ASSERT_FALSE(ecmp.empty());
  EXPECT_LE(ecmp.size(), 8u);
  const std::size_t len = ecmp.front().size();
  for (const auto& p : ecmp) EXPECT_EQ(p.size(), len);
}

TEST(ComputePaths, KspIncludesLongerPaths) {
  Rng rng(2);
  auto topo = topo::build_jellyfish(
      {.num_switches = 30, .ports_per_switch = 10, .network_degree = 6}, rng);
  const auto& g = topo.switches();
  auto ksp = make_path_provider(g, {"ksp", 8})->paths(0, 15);
  ASSERT_EQ(ksp.size(), 8u);
  // KSP must offer at least the shortest path plus longer alternatives.
  EXPECT_GE(ksp.back().size(), ksp.front().size());
  auto ecmp = make_path_provider(g, {"ecmp", 64})->paths(0, 15);
  // The paper's point: Jellyfish usually has few equal-cost shortest paths
  // but k-shortest-paths can always find 8 distinct ones.
  EXPECT_GE(ksp.size(), std::min<std::size_t>(ecmp.size(), 8));
}

TEST(SelectPath, DeterministicAndInRange) {
  for (std::uint64_t key = 0; key < 200; ++key) {
    const std::size_t p = select_path(7, key);
    EXPECT_LT(p, 7u);
    EXPECT_EQ(p, select_path(7, key));
  }
  EXPECT_THROW(select_path(0, 1), std::invalid_argument);
}

TEST(SelectPath, SpreadsAcrossPaths) {
  std::set<std::size_t> seen;
  for (std::uint64_t key = 0; key < 64; ++key) seen.insert(select_path(8, key));
  EXPECT_EQ(seen.size(), 8u);  // all 8 choices hit within 64 hashes
}

TEST(PathProviderTest, CachesPerPair) {
  Rng rng(3);
  auto topo = topo::build_jellyfish(
      {.num_switches = 20, .ports_per_switch = 8, .network_degree = 5}, rng);
  PathProvider provider(topo.switches(), {"ksp", 4});
  const auto& a = provider.paths(0, 5);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(provider.pairs_cached(), 1u);
  const auto& b = provider.paths(0, 5);
  EXPECT_EQ(&a, &b);  // same object, no recompute
  provider.paths(5, 0);
  EXPECT_EQ(provider.pairs_cached(), 2u);  // directions are distinct entries
}

TEST(PathProviderTest, RejectsUnknownSchemeAndZeroWidth) {
  const graph::Graph g(2);
  EXPECT_THROW(make_path_provider(g, {"kspp", 4}), std::invalid_argument);
  EXPECT_THROW(make_path_provider(g, {"ksp", 0}), std::invalid_argument);
  for (std::string_view name : path_provider_schemes()) {
    EXPECT_NO_THROW(make_path_provider(g, {std::string(name), 1}));
  }
}

// Locks the audit in routing/path_provider.h: the provider's unordered_map
// is probe-only, so the *order pairs were warmed in* — the one thing an
// unordered container is allowed to remember — must be unobservable. Fill
// two providers with opposite pair orders and demand byte-equal paths and
// routes for every pair; if iteration order (or any other insertion-history
// state) ever leaked into path lookup or flow routing, this is the test that
// goes red.
TEST(PathProviderTest, WarmOrderNeverReachesResults) {
  Rng rng(7);
  auto topo = topo::build_jellyfish(
      {.num_switches = 24, .ports_per_switch = 8, .network_degree = 5}, rng);
  const auto& g = topo.switches();
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (graph::NodeId s = 0; s < 12; ++s) {
    for (graph::NodeId t = 0; t < 12; ++t) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }

  for (const RoutingSpec& spec : {RoutingSpec{"ksp", 4}, RoutingSpec{"ecmp", 8}}) {
    PathProvider fwd(g, spec);
    PathProvider rev(g, spec);
    for (const auto& [s, t] : pairs) fwd.paths(s, t);
    for (auto it = pairs.rbegin(); it != pairs.rend(); ++it) rev.paths(it->first, it->second);
    EXPECT_EQ(fwd.pairs_cached(), rev.pairs_cached());
    for (const auto& [s, t] : pairs) {
      EXPECT_EQ(fwd.paths(s, t), rev.paths(s, t))
          << "pair (" << s << "," << t << ") depends on warm order";
      // Identical flow keys must route identically no matter which pairs
      // were queried first.
      for (std::uint64_t flow_key : {0ull, 17ull, 123456789ull}) {
        EXPECT_EQ(fwd.route(s, t, flow_key), rev.route(s, t, flow_key));
      }
    }
  }
}

// warm() computes on borrowed workers with per-slot scratch and inserts in
// canonical order; whatever the budget (none, an empty pot, 1 or 3 slots),
// the provider it leaves must answer paths() exactly like a serially filled
// one, and every borrowed slot must go back to the pot.
TEST(PathProviderTest, WarmMatchesSerialFillAtEveryBudget) {
  Rng rng(8);
  auto topo = topo::build_jellyfish(
      {.num_switches = 40, .ports_per_switch = 10, .network_degree = 6}, rng);
  const auto& g = topo.switches();
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (graph::NodeId s = 0; s < 10; ++s) {
    for (graph::NodeId t = 39; t >= 0; --t) pairs.emplace_back(s, t);  // s == t included
  }
  pairs.emplace_back(3, 17);  // a repeat

  for (const RoutingSpec& spec : {RoutingSpec{"ksp", 8}, RoutingSpec{"ecmp", 8}}) {
    PathProvider serial(g, spec);
    for (const auto& [s, t] : pairs) serial.paths(s, t);
    for (int slots : {-1, 0, 1, 3}) {
      parallel::WorkBudget budget(std::max(slots, 0));
      PathProvider warmed(g, spec);
      warmed.paths(5, 9);  // already cached pairs are skipped
      warmed.warm(pairs, slots < 0 ? nullptr : &budget);
      EXPECT_EQ(budget.available(), budget.total());
      EXPECT_EQ(warmed.pairs_cached(), serial.pairs_cached());
      for (const auto& [s, t] : pairs) {
        EXPECT_EQ(warmed.paths(s, t), serial.paths(s, t)) << "budget " << slots;
      }
    }
  }
}

TEST(Diversity, CountsPathsPerLink) {
  // Line graph 0-1-2: one pair (0,2), one path, both directed links on it.
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  flow::LinkIndex links(g);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs{{0, 2}};
  auto counts = link_path_counts(links, pairs, *make_path_provider(g, {"ksp", 4}));
  EXPECT_EQ(counts[links.id(0, 1)], 1);
  EXPECT_EQ(counts[links.id(1, 2)], 1);
  EXPECT_EQ(counts[links.id(1, 0)], 0);  // reverse direction unused
  EXPECT_EQ(counts[links.id(2, 1)], 0);
}

TEST(Diversity, KspSpreadsMoreThanEcmp) {
  // The paper's Fig. 9 shape at small scale: under ECMP more links sit on
  // few paths than under 8-shortest-paths.
  Rng rng(4);
  auto topo = topo::build_jellyfish(
      {.num_switches = 40, .ports_per_switch = 10, .network_degree = 6}, rng);
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (const auto& f : tm.flows) {
    pairs.emplace_back(topo.server_switch(f.src_server), topo.server_switch(f.dst_server));
  }
  flow::LinkIndex links(topo.switches());
  auto ecmp = link_path_counts(links, pairs, *make_path_provider(topo.switches(), {"ecmp", 8}));
  auto ksp = link_path_counts(links, pairs, *make_path_provider(topo.switches(), {"ksp", 8}));
  EXPECT_GT(fraction_at_or_below(ecmp, 2), fraction_at_or_below(ksp, 2));
}

TEST(Diversity, RankedIsSorted) {
  std::vector<int> counts{5, 1, 3, 2};
  auto r = ranked(counts);
  EXPECT_EQ(r, (std::vector<int>{1, 2, 3, 5}));
  EXPECT_DOUBLE_EQ(fraction_at_or_below(r, 2), 0.5);
}

TEST(Diversity, FattreeEcmpIsDiverse) {
  // In a fat-tree, ECMP has k/2 * k/2 equal-cost inter-pod paths; links
  // should rarely be starved of path diversity.
  auto ft = topo::build_fattree(4);
  Rng rng(5);
  auto tm = traffic::random_permutation(ft.num_servers(), rng);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (const auto& f : tm.flows) {
    pairs.emplace_back(ft.server_switch(f.src_server), ft.server_switch(f.dst_server));
  }
  flow::LinkIndex links(ft.switches());
  auto counts = link_path_counts(links, pairs, *make_path_provider(ft.switches(), {"ecmp", 8}));
  int on_some_path = 0;
  for (int c : counts) on_some_path += c > 0 ? 1 : 0;
  EXPECT_GT(on_some_path, 0);
}

// --- Path-set goldens ---
//
// Digests of the canonical text of every path set over all ordered pairs
// (s, t), s in 0..15, t != s. The digests were recorded from the original
// kernels (a fresh BFS per search over neighbor lists sorted at every
// visit), so they pin the exact path sets and their order — tie-breaking
// included — across any rewrite of the kernels.

graph::Graph jellyfish_245() {
  Rng rng(11);
  return topo::build_jellyfish(
             {.num_switches = 245, .ports_per_switch = 14, .network_degree = 11}, rng)
      .switches();
}

// A Jellyfish whose neighbor lists are out of id order: every third node
// drops its two oldest links and re-adds them, so they move to the back of
// both endpoints' lists.
graph::Graph rewired_jellyfish() {
  Rng rng(12);
  graph::Graph g = topo::build_jellyfish(
                       {.num_switches = 60, .ports_per_switch = 10, .network_degree = 7}, rng)
                       .switches();
  for (graph::NodeId v = 0; v < g.num_nodes(); v += 3) {
    const std::vector<graph::NodeId> nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < 2 && i < nbrs.size(); ++i) {
      g.remove_edge(v, nbrs[i]);
      g.add_edge(nbrs[i], v);
    }
  }
  return g;
}

std::string path_text(const PathSet& ps) {
  std::string out;
  for (const Path& p : ps) {
    for (graph::NodeId v : p) out += std::to_string(v) + " ";
    out += ";";
  }
  return out;
}

std::string path_sets_digest(const graph::Graph& g, const RoutingSpec& spec) {
  PathProvider provider(g, spec);
  std::string text;
  for (graph::NodeId s = 0; s < 16; ++s) {
    for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      text += std::to_string(s) + ">" + std::to_string(t) + ":" + path_text(provider.paths(s, t)) +
              "\n";
    }
  }
  return common::sha256_hex(text);
}

// Per-hop-hashed ECMP routes for four flow keys per pair.
std::string ecmp_walk_digest(const graph::Graph& g, int width) {
  const graph::SortedAdjacency adj(g);
  graph::SearchScratch scratch;
  std::string text;
  for (graph::NodeId s = 0; s < 16; ++s) {
    for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      for (std::uint64_t key = 0; key < 4; ++key) {
        text += path_text(
            {graph::ecmp_walk(adj, s, t, key * 0x9e3779b97f4a7c15ULL, width, scratch)});
      }
      text += "\n";
    }
  }
  return common::sha256_hex(text);
}

struct GoldenRow {
  int width;
  const char* ksp;
  const char* ecmp;
  const char* walk;
};

void expect_goldens(const graph::Graph& g, const std::vector<GoldenRow>& rows) {
  for (const GoldenRow& row : rows) {
    EXPECT_EQ(path_sets_digest(g, {"ksp", row.width}), row.ksp) << "ksp-" << row.width;
    EXPECT_EQ(path_sets_digest(g, {"ecmp", row.width}), row.ecmp) << "ecmp-" << row.width;
    EXPECT_EQ(ecmp_walk_digest(g, row.width), row.walk) << "ecmp walk, width " << row.width;
  }
}

TEST(PathGolden, Jellyfish245) {
  expect_goldens(jellyfish_245(), {
      {1, "114921e6202c64d9a2a78f062cca3c73f2ccb2ebe437dace92f4ca6cab57d269",
       "114921e6202c64d9a2a78f062cca3c73f2ccb2ebe437dace92f4ca6cab57d269",
       "00c09374bb72e86abfa5d02db84e378b3a3418352be0b6a787d926010f535e54"},
      {2, "1138bbcd75dae14f30116613f2b12e9b7a2cd3935a5bbc092b7e31142bfff7b1",
       "49ac50bdc51d6c6002a991244dc7eba99964ce27b92a6032bd7fd33106813f1d",
       "73f0eb37210c7e9efeeddf589bb9eaccd5d545ae19db881d7f1e2271494de52b"},
      {8, "ecb425160e952108c5854171243f4e681bf75ba9d1b16a1c5a9e7b9c67dd7aa9",
       "863ca4b0d52d59bcf920c78fbe50dacadd3213fd3669df8bf4856c1dbf46a399",
       "ebf38903afdc74c89cfe5472660603e1f3804f3151a19b5d07c5c8753f46bc48"},
  });
}

TEST(PathGolden, FatTreeK8) {
  expect_goldens(topo::build_fattree(8).switches(), {
      {1, "d288e1c11ad333b06a6d878fd4bec9c5569e2e14a17c7b226d9991cb07ac1da2",
       "d288e1c11ad333b06a6d878fd4bec9c5569e2e14a17c7b226d9991cb07ac1da2",
       "e95f40b95263e0666d62d41cede56055599cdff43a5fe4260c7d22177e79c4ca"},
      {2, "eff557cccd5ecff7b3f0237d92fcd4ba5dd1c2e1d2228cd3e13ac43af9d4b3f8",
       "1e69d9222e2c0974579815e65afcb04292861cad6636a66ac324eea2288f4a37",
       "b4fff4e4b942655809c5f29e821049d6ee0b92524de4353c7e5f7c73ba1ac1c6"},
      {8, "c50971b5e2690bde38acdb7038108fcbe39f19257456a3f081320a21dc4b8d93",
       "bccb676b058e73b376ee6085ceb5c2d2ec134f0d698145121f4d6c6cfcf97230",
       "4ef2d87f99f29abdc1e6b329b51a88ed0450cbdb105422d67ed79c0939ffe50e"},
  });
}

TEST(PathGolden, RewiredJellyfishUnsortedNeighbors) {
  const graph::Graph g = rewired_jellyfish();
  bool unsorted = false;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    unsorted = unsorted || !std::is_sorted(g.neighbors(v).begin(), g.neighbors(v).end());
  }
  ASSERT_TRUE(unsorted) << "the fixture must exercise out-of-order neighbor lists";
  expect_goldens(g, {
      {1, "092034e6f939d118a2e11ea1cf887c0fc132b532aca65ed054d4934b30680b23",
       "092034e6f939d118a2e11ea1cf887c0fc132b532aca65ed054d4934b30680b23",
       "223593cf18374f8bbe7c81835a419d5d7d9c0cd4dba21a29187bc33c19902555"},
      {2, "5652bea3ba412f638e38c2e3a04a281c63a80b87abb3eeeed177c84061c807ca",
       "2b9d040f2ef38b80d81fc569b347f664cb64212e29b11d1c262d685ba4f0121b",
       "f5ddd5e085e5648349c727e43711cdad22317439f5e5abe45423e8589e015623"},
      {8, "a54f7131c77d4e5983f57583a1fe7088f88e8e8cb3fe613b018b356b599decaf",
       "a89b15c055290034ebe664a2d0e5e9436c91666fc7ba03d0be5cda42a86ad380",
       "42b923401b195cb141c5263ced321f133c3e827f18b97c9f6a60f4c18aee6778"},
  });
}

}  // namespace
}  // namespace jf::routing
