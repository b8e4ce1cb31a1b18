// Tests for Jellyfish construction and incremental expansion — the paper's
// §3 procedures — including parameterized property sweeps over (N, k, r).
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "topo/jellyfish.h"

namespace jf::topo {
namespace {

TEST(Jellyfish, BuildsRegularGraph) {
  Rng rng(1);
  auto t = build_jellyfish({.num_switches = 30, .ports_per_switch = 10, .network_degree = 6},
                           rng);
  EXPECT_EQ(t.num_switches(), 30);
  EXPECT_EQ(t.num_servers(), 30 * 4);
  int full_degree = 0;
  for (NodeId v = 0; v < t.num_switches(); ++v) {
    EXPECT_LE(t.network_degree(v), 6);
    if (t.network_degree(v) == 6) ++full_degree;
  }
  // At most one unmatched port network-wide (paper §3): at most one switch
  // below full degree, and only by one port.
  EXPECT_GE(full_degree, 29);
  t.validate();
}

TEST(Jellyfish, OddTotalPortsLeavesOneFree) {
  Rng rng(2);
  // N * r odd => one port must remain unmatched.
  auto t = build_jellyfish({.num_switches = 5, .ports_per_switch = 5, .network_degree = 3},
                           rng);
  std::size_t total_degree = 0;
  for (NodeId v = 0; v < t.num_switches(); ++v) total_degree += t.network_degree(v);
  EXPECT_EQ(total_degree, 14u);  // 15 ports, one unmatched
}

TEST(Jellyfish, RejectsBadParameters) {
  Rng rng(3);
  EXPECT_THROW(build_jellyfish({.num_switches = 0, .ports_per_switch = 4, .network_degree = 2},
                               rng),
               std::invalid_argument);
  EXPECT_THROW(
      build_jellyfish({.num_switches = 4, .ports_per_switch = 4, .network_degree = 5}, rng),
      std::invalid_argument);
  EXPECT_THROW(
      build_jellyfish({.num_switches = 3, .ports_per_switch = 8, .network_degree = 3}, rng),
      std::invalid_argument);  // r >= N
}

TEST(Jellyfish, WithServersDistributesEvenly) {
  Rng rng(4);
  auto t = build_jellyfish_with_servers(10, 8, 23, rng);
  EXPECT_EQ(t.num_servers(), 23);
  for (NodeId v = 0; v < t.num_switches(); ++v) {
    EXPECT_GE(t.servers_at(v), 2);
    EXPECT_LE(t.servers_at(v), 3);
  }
  t.validate();
}

TEST(Jellyfish, WithServersRejectsOverload) {
  Rng rng(5);
  EXPECT_THROW(build_jellyfish_with_servers(4, 4, 20, rng), std::invalid_argument);
}

TEST(Jellyfish, DeterministicGivenSeed) {
  Rng a(77), b(77);
  auto ta = build_jellyfish({.num_switches = 20, .ports_per_switch = 8, .network_degree = 5},
                            a);
  auto tb = build_jellyfish({.num_switches = 20, .ports_per_switch = 8, .network_degree = 5},
                            b);
  EXPECT_EQ(ta.switches().edges(), tb.switches().edges());
}

// Paper §4.3: an r-regular random graph is almost surely r-edge-connected.
// Every switch has degree r, so cutting its r links isolates it; cutting
// any r - 1 links of the whole network must leave it connected. All
// C(60, 4) cuts of a 24-switch, degree-5 instance are tried.
TEST(Jellyfish, RegularGraphIsREdgeConnected) {
  Rng rng(23);
  auto t = build_jellyfish({.num_switches = 24, .ports_per_switch = 8, .network_degree = 5},
                           rng);
  graph::Graph g = t.switches();
  for (NodeId v = 0; v < g.num_nodes(); ++v) ASSERT_EQ(g.degree(v), 5);
  const std::vector<graph::Edge> edges = g.edges();
  const std::size_t m = edges.size();
  std::int64_t cuts = 0;
  std::int64_t disconnecting = 0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      for (std::size_t k = j + 1; k < m; ++k) {
        for (std::size_t l = k + 1; l < m; ++l) {
          const graph::Edge cut[] = {edges[i], edges[j], edges[k], edges[l]};
          for (const graph::Edge& e : cut) g.remove_edge(e.a, e.b);
          if (!graph::is_connected(g)) ++disconnecting;
          for (const graph::Edge& e : cut) g.add_edge(e.a, e.b);
          ++cuts;
        }
      }
    }
  }
  EXPECT_EQ(cuts, 487635);
  EXPECT_EQ(disconnecting, 0);
}

TEST(JellyfishExpansion, AddSwitchPreservesInvariants) {
  Rng rng(6);
  auto t = build_jellyfish({.num_switches = 20, .ports_per_switch = 8, .network_degree = 5},
                           rng);
  const auto links_before = t.switches().num_edges();
  NodeId u = expand_add_switch(t, 8, 5, 3, rng);
  EXPECT_EQ(t.num_switches(), 21);
  EXPECT_EQ(t.servers_at(u), 3);
  // Two swaps (4 ports) + possibly one direct link: degree 4 or 5.
  EXPECT_GE(t.network_degree(u), 4);
  EXPECT_LE(t.network_degree(u), 5);
  // Each swap removes one link and adds two: net +1 per pair of ports.
  EXPECT_GE(t.switches().num_edges(), links_before + 2);
  // Existing switches never exceed their degree budget.
  for (NodeId v = 0; v < 20; ++v) EXPECT_LE(t.network_degree(v), 5);
  t.validate();
}

TEST(JellyfishExpansion, GrowthPreservesConnectivity) {
  Rng rng(7);
  auto t = build_jellyfish({.num_switches = 15, .ports_per_switch = 8, .network_degree = 5},
                           rng);
  for (int i = 0; i < 25; ++i) {
    expand_add_switch(t, 8, 5, 3, rng);
    ASSERT_TRUE(graph::is_connected(t.switches())) << "disconnected after add " << i;
  }
  EXPECT_EQ(t.num_switches(), 40);
}

TEST(JellyfishExpansion, HeterogeneousPortCounts) {
  Rng rng(8);
  auto t = build_jellyfish({.num_switches = 12, .ports_per_switch = 6, .network_degree = 4},
                           rng);
  // Add a bigger switch (more ports) — the paper's heterogeneous expansion.
  NodeId u = expand_add_switch(t, 16, 10, 6, rng);
  EXPECT_EQ(t.ports(u), 16);
  EXPECT_GE(t.network_degree(u), 9);  // 5 swaps = 10 ports (or 9 + 1 free)
  t.validate();
  EXPECT_TRUE(graph::is_connected(t.switches()));
}

TEST(JellyfishExpansion, IntoEmptyNetwork) {
  graph::Graph g(1);
  Topology t("seed", std::move(g), {4}, {2});
  Rng rng(9);
  NodeId u = expand_add_switch(t, 4, 2, 2, rng);
  // No edges to swap: falls back to direct connection.
  EXPECT_EQ(t.network_degree(u), 1);
  EXPECT_TRUE(t.switches().has_edge(0, u));
}

TEST(JellyfishExpansion, FailRandomLinks) {
  Rng rng(10);
  auto t = build_jellyfish({.num_switches = 30, .ports_per_switch = 10, .network_degree = 6},
                           rng);
  const auto before = t.switches().num_edges();
  const int removed = fail_random_links(t, 0.2, rng);
  EXPECT_EQ(removed, static_cast<int>(before * 0.2));
  EXPECT_EQ(t.switches().num_edges(), before - static_cast<std::size_t>(removed));
  EXPECT_EQ(fail_random_links(t, 0.0, rng), 0);
  EXPECT_THROW(fail_random_links(t, 1.5, rng), std::invalid_argument);
}

TEST(JellyfishExpansion, ZeroServerSwitchForCapacity) {
  Rng rng(11);
  auto t = build_jellyfish({.num_switches = 20, .ports_per_switch = 8, .network_degree = 4},
                           rng);
  NodeId u = expand_add_switch(t, 8, 8, 0, rng);
  EXPECT_EQ(t.servers_at(u), 0);
  EXPECT_GE(t.network_degree(u), 7);
}

// ---- Property sweep: regularity + connectivity over a parameter grid ----

class JellyfishProperties : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(JellyfishProperties, RegularConnectedAndExpandable) {
  const auto [n, k, r] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 10000 + k * 100 + r);
  auto t = build_jellyfish({.num_switches = n, .ports_per_switch = k, .network_degree = r},
                           rng);
  t.validate();
  EXPECT_EQ(t.num_switches(), n);

  // Degree bound, with at most one switch one port short (odd-sum case).
  int deficit = 0;
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_LE(t.network_degree(v), r);
    deficit += r - t.network_degree(v);
  }
  EXPECT_LE(deficit, 1);

  // r >= 3 RRGs are connected with overwhelming probability at these sizes.
  if (r >= 3) {
    EXPECT_TRUE(graph::is_connected(t.switches()));
  }

  // Expansion maintains all invariants.
  expand_add_switch(t, k, r, k - r, rng);
  t.validate();
  int deficit2 = 0;
  for (NodeId v = 0; v < t.num_switches(); ++v) {
    EXPECT_LE(t.network_degree(v), r);
    deficit2 += r - t.network_degree(v);
  }
  EXPECT_LE(deficit2, 2);  // old odd port + possibly new odd port
}

INSTANTIATE_TEST_SUITE_P(
    Grid, JellyfishProperties,
    ::testing::Values(std::make_tuple(10, 6, 3), std::make_tuple(15, 6, 4),
                      std::make_tuple(20, 8, 5), std::make_tuple(25, 10, 6),
                      std::make_tuple(40, 12, 8), std::make_tuple(60, 14, 9),
                      std::make_tuple(80, 16, 11), std::make_tuple(100, 24, 12),
                      std::make_tuple(64, 8, 7), std::make_tuple(33, 7, 5)));

}  // namespace
}  // namespace jf::topo
