// Tests for §5.3 deployable routing tables / VLAN packing.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "common/rng.h"
#include "routing/tables.h"
#include "topo/jellyfish.h"

namespace jf {
namespace {

using routing::RoutingOptions;
using routing::Scheme;

std::vector<std::pair<graph::NodeId, graph::NodeId>> all_pairs(int n) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  return pairs;
}

TEST(SwitchTablesTest, WalksReproduceYenPaths) {
  Rng rng(1);
  auto topo = topo::build_jellyfish(
      {.num_switches = 16, .ports_per_switch = 8, .network_degree = 5}, rng);
  const auto& g = topo.switches();
  RoutingOptions opts{Scheme::kKsp, 4};
  routing::SwitchTables tables(g, all_pairs(16), opts);
  routing::PathCache cache(g, opts);

  for (graph::NodeId dst : {3, 9, 15}) {
    for (graph::NodeId src : {0, 5, 11}) {
      if (src == dst) continue;
      const auto& paths = cache.paths(src, dst);
      for (int pid = 0; pid < static_cast<int>(paths.size()); ++pid) {
        EXPECT_EQ(tables.walk(src, dst, pid), paths[pid])
            << "src=" << src << " dst=" << dst << " pid=" << pid;
      }
    }
  }
}

TEST(SwitchTablesTest, EntriesAccounting) {
  Rng rng(2);
  auto topo = topo::build_jellyfish(
      {.num_switches = 12, .ports_per_switch = 8, .network_degree = 5}, rng);
  routing::SwitchTables tables(topo.switches(), all_pairs(12), {Scheme::kKsp, 8});
  std::size_t sum = 0;
  for (graph::NodeId sw = 0; sw < 12; ++sw) sum += tables.entries_at(sw);
  EXPECT_EQ(sum, tables.total_entries());
  EXPECT_GT(sum, 0u);
  // Missing entries answer -1.
  EXPECT_EQ(tables.next_hop(0, 0, 0, 99), -1);
}

TEST(SwitchTablesTest, WalkDetectsMissingRoute) {
  graph::Graph g(3);
  g.add_edge(0, 1);  // 2 is isolated
  routing::SwitchTables tables(g, {{0, 1}}, {Scheme::kKsp, 2});
  EXPECT_TRUE(tables.walk(0, 2, 0).empty());
}

TEST(VlanPacking, SinglePathOneVlan) {
  std::vector<std::vector<graph::NodeId>> paths{{0, 1, 2}};
  auto colors = routing::pack_paths_into_vlans(paths);
  EXPECT_EQ(routing::vlan_count(colors), 1);
}

TEST(VlanPacking, ConflictingPathsSplit) {
  // Two paths to dst 3 diverge at node 1: cannot share a VLAN.
  std::vector<std::vector<graph::NodeId>> paths{{0, 1, 2, 3}, {4, 1, 5, 3}};
  // At node 1, toward dst 3: next hop 2 vs 5 -> conflict.
  auto colors = routing::pack_paths_into_vlans(paths);
  EXPECT_NE(colors[0], colors[1]);
  EXPECT_EQ(routing::vlan_count(colors), 2);
}

TEST(VlanPacking, NonConflictingShare) {
  // Distinct destinations never conflict.
  std::vector<std::vector<graph::NodeId>> paths{{0, 1, 2}, {3, 1, 4}};
  auto colors = routing::pack_paths_into_vlans(paths);
  EXPECT_EQ(colors[0], colors[1]);
}

TEST(VlanPacking, JellyfishKspNeedsFewVlans) {
  // §5.3 feasibility: 8-shortest-path routing for a whole Jellyfish should
  // pack into a modest VLAN count (SPAIN's practicality argument).
  Rng rng(3);
  auto topo = topo::build_jellyfish(
      {.num_switches = 20, .ports_per_switch = 10, .network_degree = 6}, rng);
  routing::PathCache cache(topo.switches(), {Scheme::kKsp, 8});
  std::vector<std::vector<graph::NodeId>> paths;
  for (const auto& [s, t] : all_pairs(20)) {
    for (const auto& p : cache.paths(s, t)) paths.push_back(p);
  }
  auto colors = routing::pack_paths_into_vlans(paths);
  const int vlans = routing::vlan_count(colors);
  EXPECT_GE(vlans, 8);     // at least the path multiplicity
  EXPECT_LE(vlans, 64);    // far below the 4096 VLAN-id space
  // Every path kept its integrity: per VLAN per (switch, dst) unique next hop.
  std::map<std::tuple<int, graph::NodeId, graph::NodeId>, graph::NodeId> seen;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const auto dst = paths[p].back();
    for (std::size_t i = 0; i + 1 < paths[p].size(); ++i) {
      auto key = std::make_tuple(colors[p], paths[p][i], dst);
      auto it = seen.find(key);
      if (it == seen.end()) seen[key] = paths[p][i + 1];
      else EXPECT_EQ(it->second, paths[p][i + 1]);
    }
  }
}

}  // namespace
}  // namespace jf
