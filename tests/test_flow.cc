// Tests for the fluid capacity engines: Garg-Könemann max concurrent flow,
// directed link ids, bisection bounds, and the capacity search.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "flow/bisection.h"
#include "flow/link_index.h"
#include "flow/mcf.h"
#include "flow/throughput.h"
#include "topo/fattree.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

namespace jf::flow {
namespace {

using graph::Graph;
using traffic::Commodity;

TEST(Mcf, SingleCommodityOnPath) {
  // Line 0-1-2: one commodity of demand 2 over unit links => lambda = 0.5.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<Commodity> cs{{0, 2, 2.0}};
  auto r = max_concurrent_flow(g, cs, {});
  EXPECT_NEAR(r.lambda, 0.5, 0.03);
  EXPECT_GE(r.lambda_upper + 1e-9, r.lambda);
}

TEST(Mcf, TwoDisjointPathsDoubleCapacity) {
  // 0 and 3 joined via 1 and via 2: demand 1 => lambda = 2 (two unit paths).
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  std::vector<Commodity> cs{{0, 3, 1.0}};
  auto r = max_concurrent_flow(g, cs, {});
  EXPECT_NEAR(r.lambda, 2.0, 0.1);
}

TEST(Mcf, CompetingCommoditiesShare) {
  // Two commodities forced through one shared edge.
  Graph g(4);
  g.add_edge(0, 1);  // shared bottleneck 1-2
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  std::vector<Commodity> cs{{0, 2, 1.0}, {1, 3, 1.0}};
  auto r = max_concurrent_flow(g, cs, {});
  EXPECT_NEAR(r.lambda, 0.5, 0.03);
}

TEST(Mcf, DisconnectedCommodityYieldsZero) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  std::vector<Commodity> cs{{0, 3, 1.0}};
  auto r = max_concurrent_flow(g, cs, {});
  EXPECT_DOUBLE_EQ(r.lambda, 0.0);
  EXPECT_DOUBLE_EQ(r.lambda_upper, 0.0);
}

TEST(Mcf, EmptyCommoditiesIsVacuouslyFeasible) {
  Graph g(2);
  g.add_edge(0, 1);
  auto r = max_concurrent_flow(g, {}, {});
  EXPECT_GT(r.lambda, 1.0);
}

TEST(Mcf, LinkCapacityScalesLambda) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<Commodity> cs{{0, 2, 1.0}};
  McfOptions opts;
  opts.link_capacity = 4.0;
  auto r = max_concurrent_flow(g, cs, opts);
  EXPECT_NEAR(r.lambda, 4.0, 0.2);
}

TEST(Mcf, ThresholdDecisionsAreCertified) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<Commodity> cs{{0, 2, 1.0}};  // true lambda = 1
  McfOptions above;
  above.decide_threshold = 0.5;
  auto ra = max_concurrent_flow(g, cs, above);
  EXPECT_TRUE(ra.decided_above);
  EXPECT_FALSE(ra.decided_below);

  McfOptions below;
  below.decide_threshold = 1.5;
  auto rb = max_concurrent_flow(g, cs, below);
  EXPECT_TRUE(rb.decided_below);
  EXPECT_FALSE(rb.decided_above);
}

TEST(Mcf, PrimalNeverExceedsDual) {
  Rng rng(12);
  auto topo = topo::build_jellyfish(
      {.num_switches = 20, .ports_per_switch = 8, .network_degree = 5}, rng);
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  auto cs = traffic::to_switch_commodities(topo, tm);
  auto r = max_concurrent_flow(topo.switches(), cs, {});
  EXPECT_GT(r.lambda, 0.0);
  EXPECT_LE(r.lambda, r.lambda_upper * (1.0 + 1e-9));
  // Dual gap should be modest after convergence.
  EXPECT_LT(r.lambda_upper / r.lambda, 1.2);
}

TEST(Mcf, RejectsBadCommodities) {
  Graph g(2);
  g.add_edge(0, 1);
  std::vector<Commodity> self{{0, 0, 1.0}};
  EXPECT_THROW(max_concurrent_flow(g, self, {}), std::invalid_argument);
  std::vector<Commodity> oob{{0, 5, 1.0}};
  EXPECT_THROW(max_concurrent_flow(g, oob, {}), std::invalid_argument);
}

TEST(Mcf, FattreeIsFullBisection) {
  // The k=4 fat-tree must sustain ~full rate for permutation traffic.
  auto ft = topo::build_fattree(4);
  Rng rng(13);
  auto tm = traffic::random_permutation(ft.num_servers(), rng);
  auto cs = traffic::to_switch_commodities(ft, tm);
  auto r = max_concurrent_flow(ft.switches(), cs, {});
  EXPECT_GT(r.lambda, 0.9);
}

TEST(LinkIndexTest, DirectedIds) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  LinkIndex idx(g);
  EXPECT_EQ(idx.num_links(), 4);
  EXPECT_NE(idx.id(0, 1), idx.id(1, 0));
  std::vector<graph::NodeId> path{0, 1, 2};
  auto links = idx.path_links(path);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], idx.id(0, 1));
  EXPECT_EQ(links[1], idx.id(1, 2));
  EXPECT_THROW(idx.id(0, 2), std::invalid_argument);
}

TEST(Bisection, BollobasBound) {
  // r/4 - sqrt(r ln 2)/2 per node; for r=36, N=100:
  const double edges = bollobas_bisection_edges(100, 36);
  EXPECT_NEAR(edges, 100 * (9.0 - std::sqrt(36 * std::log(2.0)) / 2.0), 1e-9);
  // Vacuous for tiny degree.
  EXPECT_DOUBLE_EQ(bollobas_bisection_edges(10, 1), 0.0);
}

TEST(Bisection, FattreeFormulae) {
  EXPECT_DOUBLE_EQ(fattree_bisection_edges(4), 8.0);
  // Designed load: k^3/4 servers -> normalized exactly 1.
  EXPECT_DOUBLE_EQ(fattree_normalized_bisection(4, 16), 1.0);
  // Double the servers -> 0.5.
  EXPECT_DOUBLE_EQ(fattree_normalized_bisection(4, 32), 0.5);
}

TEST(Bisection, JellyfishMinPortsBeatsFattreeAtScale) {
  const int servers = 27648;  // k=48 fat-tree design point
  const auto jf = jellyfish_min_ports_full_bisection(servers, 48);
  const int k = 48;
  const auto ft = fattree_min_ports_full_bisection(servers, {&k, 1});
  ASSERT_GT(jf, 0u);
  ASSERT_GT(ft, 0u);
  EXPECT_LT(jf, ft);  // the paper's cost advantage
}

TEST(Bisection, KlEstimateMatchesFattreeOrder) {
  auto ft = topo::build_fattree(4);
  Rng rng(15);
  const double nbb = estimated_normalized_bisection(ft, rng, 8);
  // True normalized bisection is 1.0; KL heuristic cut should be near it
  // (it may exceed 1.0 since KL upper-bounds the min cut).
  EXPECT_GT(nbb, 0.7);
  EXPECT_LT(nbb, 2.0);
}

TEST(Throughput, PermutationInUnitRange) {
  Rng rng(16);
  auto topo = topo::build_jellyfish(
      {.num_switches = 16, .ports_per_switch = 8, .network_degree = 5}, rng);
  const double t = permutation_throughput(topo, rng, {});
  EXPECT_GT(t, 0.0);
  EXPECT_LE(t, 1.0);
}

TEST(Throughput, OversubscriptionLowersIt) {
  Rng rng(17);
  auto light = topo::build_jellyfish(
      {.num_switches = 20, .ports_per_switch = 12, .network_degree = 9}, rng);
  auto heavy = topo::build_jellyfish(
      {.num_switches = 20, .ports_per_switch = 12, .network_degree = 5}, rng);
  Rng r1 = rng.fork(1), r2 = rng.fork(2);
  const double t_light = mean_permutation_throughput(light, r1, 2, {});
  const double t_heavy = mean_permutation_throughput(heavy, r2, 2, {});
  EXPECT_GT(t_light, t_heavy);
}

TEST(Throughput, SupportsFullCapacityHonestyCheck) {
  Rng rng(18);
  // Underloaded: 1 server per switch, high degree => certainly full capacity.
  auto topo = topo::build_jellyfish(
      {.num_switches = 12, .ports_per_switch = 8, .network_degree = 7}, rng);
  EXPECT_TRUE(supports_full_capacity(topo, rng, 2, 0.9));
  // Overloaded: 6 servers per switch, degree 2 ring-ish => cannot.
  auto over = topo::build_jellyfish(
      {.num_switches = 12, .ports_per_switch = 8, .network_degree = 2}, rng);
  EXPECT_FALSE(supports_full_capacity(over, rng, 2, 0.9));
}

TEST(Throughput, CapacitySearchOrdersWithEquipment) {
  Rng rng(19);
  CapacitySearchOptions opts;
  opts.matrices_per_check = 2;
  opts.verify_matrices = 2;
  Rng r1 = rng.fork(1), r2 = rng.fork(2);
  const int small = max_servers_at_full_capacity(10, 6, r1, opts);
  const int large = max_servers_at_full_capacity(20, 6, r2, opts);
  EXPECT_GT(small, 0);
  EXPECT_GT(large, small);  // more equipment supports more servers
}

}  // namespace
}  // namespace jf::flow
