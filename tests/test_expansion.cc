// Tests for the expansion cost model, Clos baseline, and Fig. 7-style
// budgeted growth arcs under both plan_growth policies.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>

#include "common/rng.h"
#include "expansion/clos.h"
#include "expansion/cost_model.h"
#include "expansion/schedule.h"
#include "graph/algorithms.h"

namespace jf::expansion {
namespace {

TEST(CostModel, SwitchAndCableCosts) {
  CostModel m;
  EXPECT_DOUBLE_EQ(m.switch_cost(24), 2400.0);
  EXPECT_DOUBLE_EQ(m.cable_cost(5.0), 10.0 + 30.0);
  // Beyond the electrical limit, transceivers kick in.
  EXPECT_DOUBLE_EQ(m.cable_cost(20.0), 10.0 + 120.0 + 400.0);
  EXPECT_THROW(m.cable_cost(-1.0), std::invalid_argument);
  EXPECT_GT(m.new_cable_cost(), m.cable_cost(m.default_cable_length_m));
}

TEST(Clos, FeasibilityRules) {
  EXPECT_TRUE((ClosConfig{4, 2, 2, 4}).feasible());   // 4 edges x 2 up <= 2*4
  EXPECT_FALSE((ClosConfig{4, 0, 2, 4}).feasible());  // no spine
  EXPECT_FALSE((ClosConfig{4, 2, 4, 4}).feasible());  // no uplinks
  EXPECT_FALSE((ClosConfig{9, 2, 2, 4}).feasible());  // spine ports exceeded
}

TEST(Clos, BisectionFormula) {
  // d = u = k/2: full bisection.
  EXPECT_DOUBLE_EQ((ClosConfig{4, 2, 2, 4}).normalized_bisection(), 1.0);
  // Oversubscribed edge: u/d = 1/3.
  EXPECT_NEAR((ClosConfig{4, 1, 3, 4}).normalized_bisection(), 1.0 / 3.0, 1e-12);
}

TEST(Clos, CableMultisetAndDelta) {
  ClosConfig a{2, 2, 2, 4};  // 2 edges, 2 uplinks each
  auto cables = clos_cables(a);
  int total = 0;
  for (const auto& [key, count] : cables) total += count;
  EXPECT_EQ(total, a.edge * a.up());

  // Growing the spine reshuffles round-robin assignments.
  ClosConfig b{2, 3, 2, 4};
  auto [added, removed] = cable_delta(a, b);
  EXPECT_GT(added, 0);
  EXPECT_EQ(total - removed + added, b.edge * b.up());

  // Identity delta is empty.
  auto [a2, r2] = cable_delta(a, a);
  EXPECT_EQ(a2, 0);
  EXPECT_EQ(r2, 0);
}

TEST(Clos, BuildsValidTopology) {
  ClosConfig cfg{6, 3, 4, 8};
  auto topo = build_clos(cfg);
  EXPECT_EQ(topo.num_switches(), 9);
  EXPECT_EQ(topo.num_servers(), 24);
  EXPECT_TRUE(graph::is_connected(topo.switches()));
  topo.validate();
}

TEST(Clos, UpgradeSearchImprovesWithinBudget) {
  CostModel costs;
  ClosConfig cur{8, 2, 6, 8};  // oversubscribed: u/d = 2/6
  double spent = 0.0;
  auto next = best_clos_upgrade(cur, cur.servers(), 50000.0, costs, &spent);
  EXPECT_GE(next.normalized_bisection(), cur.normalized_bisection());
  EXPECT_LE(spent, 50000.0);
  // A zero budget cannot change anything.
  auto same = best_clos_upgrade(cur, cur.servers(), 0.0, costs, &spent);
  EXPECT_EQ(same.edge, cur.edge);
  EXPECT_EQ(same.spine, cur.spine);
  EXPECT_DOUBLE_EQ(spent, 0.0);
}

// A Fig. 7 arc: each stage has a budget and a server obligation, with no
// fixed switch adds and no rewiring cap.
GrowthSchedule arc(InitialBuild initial, const std::string& policy,
                   std::initializer_list<std::pair<double, int>> stages) {
  GrowthSchedule sched;
  sched.initial = initial;
  sched.policy = policy;
  for (const auto& [budget, min_servers] : stages) {
    sched.steps.push_back(GrowthStep{0, min_servers, budget, -1});
  }
  return sched;
}

TEST(Planner, JellyfishArcMeetsServerObligations) {
  CostModel costs;
  Rng rng(1);
  auto plan = plan_growth(arc({10, 12, 40}, "jellyfish", {{8000.0, 60}, {8000.0, 0}}), costs,
                          rng);
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.steps[0].servers, 40);
  EXPECT_GE(plan.steps[1].servers, 60);
  // Stage budgets respected (allow the rack-obligation overshoot).
  EXPECT_LE(plan.steps[2].spent, 8000.0 + 1e-9);
  // Cumulative cost increases monotonically.
  EXPECT_GT(plan.steps[1].cumulative_cost, plan.steps[0].cumulative_cost);
  plan.topology.validate();
  EXPECT_TRUE(graph::is_connected(plan.topology.switches()));
}

TEST(Planner, ClosArcStaysLegal) {
  CostModel costs;
  Rng rng(2);
  auto plan = plan_growth(
      arc({10, 12, 40}, "clos", {{8000.0, 60}, {8000.0, 0}, {8000.0, 0}}), costs, rng);
  ASSERT_EQ(plan.steps.size(), 4u);
  EXPECT_GE(plan.steps[1].servers, 60);
  EXPECT_TRUE(plan.clos.feasible());
  // Bisection never decreases across switch-only stages.
  for (std::size_t i = 2; i < plan.steps.size(); ++i) {
    EXPECT_GE(plan.steps[i].normalized_bisection + 1e-12,
              plan.steps[i - 1].normalized_bisection);
  }
}

TEST(Planner, JellyfishBeatsClosOnBisectionPerBudget) {
  // The Fig. 7 headline at miniature scale: same arc, same cost model,
  // Jellyfish ends with at least the Clos baseline's bisection bandwidth.
  const InitialBuild initial{12, 12, 48};
  const std::initializer_list<std::pair<double, int>> stages{
      {6000.0, 72}, {6000.0, 0}, {6000.0, 0}};
  CostModel costs;
  Rng rng(3);
  Rng r1 = rng.fork(1), r2 = rng.fork(2);
  auto jf = plan_growth(arc(initial, "jellyfish", stages), costs, r1);
  auto clos = plan_growth(arc(initial, "clos", stages), costs, r2);
  EXPECT_GE(jf.steps.back().normalized_bisection + 0.05,
            clos.steps.back().normalized_bisection);
}

}  // namespace
}  // namespace jf::expansion
