// Growth-planning subsystem: schedule resolution, the unified planner
// (determinism, rewiring caps, jellyfish-incr parity), the engine's
// expansion metrics, growth JSON round trips and loader error paths, growth
// sweep fields, link-failure topology specs, and cross-point cell
// memoization.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "eval/engine.h"
#include "eval/serialize.h"
#include "eval/sweep.h"
#include "eval/topology_factory.h"
#include "expansion/schedule.h"
#include "topo/jellyfish.h"

namespace jf {
namespace {

using eval::Metric;

expansion::GrowthSchedule small_arc() {
  expansion::GrowthSchedule sched;
  sched.initial = {10, 8, 20};
  sched.steps = {{0, 30, 6000.0, -1}, {0, 0, 6000.0, -1}};
  return sched;
}

TEST(GrowthSchedule, GeneratorExpandsToFixedSteps) {
  expansion::GrowthSchedule sched;
  sched.initial = {8, 8, 24};
  sched.network_degree = 5;
  sched.target_switches = 15;
  sched.step_switches = 3;
  sched.rewire_limit = 4;
  const auto steps = expansion::resolve_growth_steps(sched);
  ASSERT_EQ(steps.size(), 3u);  // 8 -> 11 -> 14 -> 15
  EXPECT_EQ(steps[0].add_switches, 3);
  EXPECT_EQ(steps[1].add_switches, 3);
  EXPECT_EQ(steps[2].add_switches, 1);  // last step truncated
  for (const auto& s : steps) EXPECT_EQ(s.rewire_limit, 4);
  // No steps at all: initial build only.
  sched.target_switches = 0;
  EXPECT_TRUE(expansion::resolve_growth_steps(sched).empty());
}

TEST(GrowthSchedule, RejectsInconsistentSchedules) {
  expansion::GrowthSchedule sched = small_arc();
  sched.target_switches = 20;  // explicit steps + generator
  EXPECT_THROW(expansion::resolve_growth_steps(sched), std::invalid_argument);

  sched = small_arc();
  sched.policy = "ring";
  EXPECT_THROW(expansion::resolve_growth_steps(sched), std::invalid_argument);

  sched = small_arc();
  sched.steps[1].budget = -1.0;
  EXPECT_THROW(expansion::resolve_growth_steps(sched), std::invalid_argument);

  // Uniform regime: servers must match switches * (ports - network_degree).
  sched = expansion::GrowthSchedule{};
  sched.initial = {8, 8, 23};
  sched.network_degree = 5;
  EXPECT_THROW(expansion::resolve_growth_steps(sched), std::invalid_argument);

  sched.initial.servers = 24;
  EXPECT_NO_THROW(expansion::resolve_growth_steps(sched));

  // Clos growth is budget/server driven: fixed adds (explicit or generated)
  // and the uniform regime are structural errors, caught at resolve time.
  sched.policy = "clos";
  EXPECT_THROW(expansion::resolve_growth_steps(sched), std::invalid_argument);
  sched.network_degree = 0;
  sched.initial.servers = 20;
  sched.target_switches = 14;
  EXPECT_THROW(expansion::resolve_growth_steps(sched), std::invalid_argument);
  sched.target_switches = 0;
  sched.steps = {{0, 30, 6000.0, -1}};
  EXPECT_NO_THROW(expansion::resolve_growth_steps(sched));

  // network_degree == ports hosts no servers, so a min_servers obligation
  // could never be met (the rack-add loop would grow forever) — rejected.
  sched = expansion::GrowthSchedule{};
  sched.initial = {8, 4, 0};
  sched.network_degree = 4;
  sched.steps = {{0, 8, 0.0, -1}};
  EXPECT_THROW(expansion::resolve_growth_steps(sched), std::invalid_argument);
  sched.steps = {{2, 0, 0.0, -1}};  // switch-only growth is fine
  EXPECT_NO_THROW(expansion::resolve_growth_steps(sched));
}

TEST(GrowthSchedule, BadPolicyCombinationsFailBeforeEvaluation) {
  // A per-topology clos override over a uniform-regime schedule must fail
  // up front — in the loader with the row's context path, and in the
  // engine's pre-batch validation — never from a worker thread mid-run.
  const std::string text = R"({"name": "g",
    "topologies": [{"family": "jellyfish", "growth_policy": "clos"}],
    "metrics": ["expansion_cost"], "seeds": [1],
    "growth": {"initial": {"switches": 8, "ports": 8, "servers": 24},
               "network_degree": 5, "target_switches": 14}})";
  try {
    eval::scenario_from_json(json::Value::parse(text));
    FAIL() << "clos override over uniform schedule accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("topologies[0].growth_policy"),
              std::string::npos);
  }

  eval::Scenario s;
  s.topologies = {{.family = "jellyfish", .label = "bad", .growth_policy = "clos"}};
  s.metrics = {Metric::kExpansionCost};
  s.growth.initial = {8, 8, 24};
  s.growth.network_degree = 5;
  s.growth.target_switches = 14;
  EXPECT_THROW(eval::Engine({.threads = 2}).run(s), std::invalid_argument);

  // fail_links + packet_sim would abort mid-run on the first disconnected
  // flow; the engine refuses the combination up front instead.
  eval::Scenario sim;
  sim.topologies = {{.family = "fattree", .fattree_k = 4, .fail_links = 0.3}};
  sim.routings = {{"ecmp", 4}};
  sim.metrics = {Metric::kPacketSim};
  EXPECT_THROW(eval::Engine({.threads = 1}).run(sim), std::invalid_argument);
}

// The jellyfish-incr family must construct byte-identical topologies through
// the unified planner: same initial build, same splice sequence, one rng
// stream consumed in order (this replicates the historical inline grow loop).
TEST(GrowthPlanner, JellyfishIncrParity) {
  const int grow_from = 10, target = 25, grow_step = 4, ports = 8, nd = 5;
  Rng legacy_rng(42);
  auto legacy = topo::build_jellyfish(
      {.num_switches = grow_from, .ports_per_switch = ports, .network_degree = nd},
      legacy_rng);
  while (legacy.num_switches() < target) {
    const int step = std::min(grow_step, target - legacy.num_switches());
    topo::expand_add_switches(legacy, step, ports, nd, ports - nd, legacy_rng);
  }

  eval::TopologySpec spec{.family = "jellyfish-incr",
                          .switches = target,
                          .ports = ports,
                          .network_degree = nd,
                          .grow_from = grow_from,
                          .grow_step = grow_step};
  Rng unified_rng(42);
  auto unified = eval::build_topology(spec, unified_rng);

  ASSERT_EQ(unified.num_switches(), legacy.num_switches());
  ASSERT_EQ(unified.num_servers(), legacy.num_servers());
  const auto le = legacy.switches().edges();
  const auto ue = unified.switches().edges();
  ASSERT_EQ(le.size(), ue.size());
  for (std::size_t i = 0; i < le.size(); ++i) {
    EXPECT_EQ(le[i].a, ue[i].a);
    EXPECT_EQ(le[i].b, ue[i].b);
  }
  for (topo::NodeId v = 0; v < unified.num_switches(); ++v) {
    EXPECT_EQ(unified.servers_at(v), legacy.servers_at(v));
  }
}

TEST(GrowthPlanner, DeterministicAcrossWorkerBudgets) {
  expansion::GrowthSchedule sched = small_arc();
  expansion::CostModel costs;
  std::vector<expansion::GrowthPlan> plans;
  for (int extra : {0, 1, 7}) {
    parallel::WorkBudget budget(extra);
    expansion::GrowthPlanOptions opts;
    opts.budget = extra == 0 ? nullptr : &budget;
    Rng rng(7);
    plans.push_back(expansion::plan_growth(sched, costs, rng, opts));
  }
  for (std::size_t i = 1; i < plans.size(); ++i) {
    ASSERT_EQ(plans[i].steps.size(), plans[0].steps.size());
    for (std::size_t s = 0; s < plans[0].steps.size(); ++s) {
      const auto& a = plans[0].steps[s];
      const auto& b = plans[i].steps[s];
      EXPECT_EQ(a.switches, b.switches);
      EXPECT_EQ(a.servers, b.servers);
      EXPECT_EQ(a.cables_rewired, b.cables_rewired);
      EXPECT_EQ(a.cables_touched, b.cables_touched);
      EXPECT_DOUBLE_EQ(a.cumulative_cost, b.cumulative_cost);
      EXPECT_DOUBLE_EQ(a.normalized_bisection, b.normalized_bisection);
    }
  }
}

TEST(GrowthPlanner, RewireLimitCapsDetaches) {
  expansion::GrowthSchedule sched;
  sched.initial = {8, 8, 24};
  sched.network_degree = 5;
  sched.steps = {{4, 0, 0.0, -1}, {4, 0, 0.0, 3}, {4, 0, 0.0, 0}};
  expansion::CostModel costs;
  Rng rng(11);
  expansion::GrowthPlanOptions opts;
  opts.score_bisection = false;
  const auto plan = expansion::plan_growth(sched, costs, rng, opts);
  ASSERT_EQ(plan.steps.size(), 4u);
  // Unlimited: 4 switches x degree 5 -> 2 detaches each.
  EXPECT_EQ(plan.steps[1].cables_rewired, 8);
  // Capped at 3 detaches for the whole step.
  EXPECT_LE(plan.steps[2].cables_rewired, 3);
  EXPECT_GT(plan.steps[2].cables_rewired, 0);
  // A zero cap still adds the obligatory switches, without any detaching.
  EXPECT_EQ(plan.steps[3].cables_rewired, 0);
  EXPECT_EQ(plan.steps[3].switches, plan.steps[2].switches + 4);
  // Rewiring caps also bound the clos upgrade search.
  expansion::CostModel cm;
  double spent = 0.0;
  expansion::ClosConfig cur{8, 2, 6, 8};
  const auto capped =
      expansion::best_clos_upgrade(cur, cur.servers(), 50000.0, cm, &spent, 0);
  const auto [added, removed] = expansion::cable_delta(cur, capped);
  EXPECT_EQ(removed, 0);
  (void)added;
}

// The engine's expansion metrics must report exactly what the growth kernel
// plans (same schedule, same seed-and-index-derived stream), under both
// growth policies.
TEST(GrowthMetrics, EngineMatchesKernel) {
  eval::Scenario s;
  s.name = "growth";
  s.topologies = {{.family = "jellyfish", .label = "jf"},
                  {.family = "jellyfish", .label = "clos", .growth_policy = "clos"}};
  s.metrics = {Metric::kExpansionCost, Metric::kRewiredCables,
               Metric::kExpansionBisection};
  s.seeds = {5};
  s.growth = small_arc();

  const auto report = eval::Engine({.threads = 2}).run(s);
  for (int t : {0, 1}) {
    const auto plan = eval::Engine::growth_plan(s, t, 5, /*score_bisection=*/true);
    for (const auto& r : plan.steps) {
      const std::string suffix = "_s" + std::to_string(r.step);
      EXPECT_EQ(report.series(t, -1, "expansion_cost" + suffix),
                std::vector<double>{r.cumulative_cost});
      EXPECT_EQ(report.series(t, -1, "rewired_cables" + suffix),
                std::vector<double>{static_cast<double>(r.cables_rewired)});
      EXPECT_EQ(report.series(t, -1, "expansion_bisection" + suffix),
                std::vector<double>{r.normalized_bisection});
    }
    EXPECT_EQ(report.series(t, -1, "expansion_cost"),
              std::vector<double>{plan.steps.back().cumulative_cost});
  }

}

TEST(GrowthMetrics, ReportsByteIdenticalAtAnyThreadCount) {
  eval::SweepSpec spec;
  spec.base.name = "growth_threads";
  spec.base.topologies = {{.family = "jellyfish", .label = "grow"}};
  spec.base.metrics = {Metric::kExpansionCost, Metric::kRewiredCables,
                       Metric::kExpansionBisection};
  spec.base.seeds = {1, 2};
  spec.base.growth.initial = {8, 8, 24};
  spec.base.growth.network_degree = 5;
  spec.base.growth.target_switches = 14;
  spec.base.growth.step_switches = 3;
  spec.axes = {{{{"growth.rewire_limit", "", {-1, 2}}}}};

  std::string first;
  for (int threads : {1, 2, 8}) {
    const auto report = eval::run_sweep(spec, {.threads = threads});
    const std::string dump = eval::sweep_report_to_json(report).dump();
    if (first.empty()) {
      first = dump;
    } else {
      EXPECT_EQ(dump, first) << "threads=" << threads;
    }
  }
}

TEST(GrowthSerialize, RoundTripAndSweepFields) {
  const std::string text = R"({
    "name": "g",
    "topologies": [{"family": "jellyfish", "growth_policy": "jellyfish"}],
    "metrics": ["expansion_cost"],
    "seeds": [1],
    "growth": {
      "policy": "jellyfish",
      "initial": {"switches": 8, "ports": 8, "servers": 24},
      "network_degree": 5,
      "target_switches": 14,
      "step_switches": 3,
      "rewire_limit": 2
    },
    "sweep": [{"field": "growth.step_switches", "values": [1, 3]}]
  })";
  const auto spec = eval::sweep_from_json(json::Value::parse(text));
  EXPECT_EQ(spec.base.growth.network_degree, 5);
  EXPECT_EQ(spec.base.growth.target_switches, 14);
  EXPECT_EQ(spec.base.growth.rewire_limit, 2);
  EXPECT_EQ(spec.base.topologies[0].growth_policy, "jellyfish");

  // write -> load -> write is byte-identical.
  const std::string dumped = eval::sweep_to_json(spec).dump(2);
  const auto reloaded = eval::sweep_from_json(json::Value::parse(dumped));
  EXPECT_EQ(eval::sweep_to_json(reloaded).dump(2), dumped);

  // Sweep fields reach the schedule (and explicit steps, for the cap).
  auto points = eval::expand_sweep(spec);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].scenario.growth.step_switches, 1);
  EXPECT_EQ(points[1].scenario.growth.step_switches, 3);
  eval::Scenario with_steps = spec.base;
  with_steps.growth = expansion::GrowthSchedule{};
  with_steps.growth.steps = {{0, 0, 100.0, -1}, {0, 0, 100.0, -1}};
  eval::apply_sweep_value(with_steps, {"growth.budget", "", {}}, 250.0);
  eval::apply_sweep_value(with_steps, {"growth.rewire_limit", "", {}}, 4.0);
  for (const auto& step : with_steps.growth.steps) {
    EXPECT_DOUBLE_EQ(step.budget, 250.0);
    EXPECT_EQ(step.rewire_limit, 4);
  }
  // Generator fields are a silent no-op over explicit steps — rejected.
  EXPECT_THROW(
      eval::apply_sweep_value(with_steps, {"growth.step_switches", "", {}}, 2.0),
      std::invalid_argument);
  EXPECT_THROW(
      eval::apply_sweep_value(with_steps, {"growth.target_switches", "", {}}, 20.0),
      std::invalid_argument);
}

TEST(GrowthSerialize, LoaderErrorPathsCarryContext) {
  auto load = [](const std::string& growth_body) {
    const std::string text = R"({"name": "g", "topologies": [{"family": "jellyfish"}],
      "metrics": ["expansion_cost"], "seeds": [1], "growth": )" +
                             growth_body + "}";
    return eval::scenario_from_json(json::Value::parse(text));
  };
  try {
    load(R"({"bogus": 1})");
    FAIL() << "unknown growth key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenario.growth"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
  try {
    load(R"({"policy": "ring"})");
    FAIL() << "bad policy accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenario.growth.policy"), std::string::npos);
  }
  try {
    load(R"({"steps": [{"budget": -5}]})");
    FAIL() << "negative budget accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenario.growth"), std::string::npos);
  }
  try {
    load(R"({"steps": [{"add_switches": 2}], "target_switches": 20})");
    FAIL() << "steps+target accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mutually exclusive"), std::string::npos);
  }

  // Topology-level growth fields validate with their own context.
  const std::string bad_policy = R"({"name": "g",
    "topologies": [{"family": "jellyfish", "growth_policy": "hexagon"}],
    "metrics": ["expansion_cost"], "seeds": [1]})";
  try {
    eval::scenario_from_json(json::Value::parse(bad_policy));
    FAIL() << "bad growth_policy accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("topologies[0].growth_policy"),
              std::string::npos);
  }
  const std::string bad_fail = R"({"name": "g",
    "topologies": [{"family": "jellyfish", "fail_links": 1.5}],
    "metrics": ["path_stats"], "seeds": [1]})";
  EXPECT_THROW(eval::scenario_from_json(json::Value::parse(bad_fail)),
               std::invalid_argument);
}

TEST(FailLinks, RemovesLinksDeterministically) {
  eval::TopologySpec spec{
      .family = "jellyfish", .switches = 16, .ports = 6, .servers = 16};
  Rng intact_rng(3);
  const auto intact = eval::build_topology(spec, intact_rng);
  spec.fail_links = 0.25;
  Rng failed_rng(3);
  const auto failed = eval::build_topology(spec, failed_rng);
  const int before = intact.switches().num_edges();
  EXPECT_EQ(failed.switches().num_edges(), before - before / 4);
  // Same stream, same failures.
  Rng again_rng(3);
  const auto again = eval::build_topology(spec, again_rng);
  const auto fe = failed.switches().edges();
  const auto ae = again.switches().edges();
  ASSERT_EQ(fe.size(), ae.size());
  for (std::size_t i = 0; i < fe.size(); ++i) {
    EXPECT_EQ(fe[i].a, ae[i].a);
    EXPECT_EQ(fe[i].b, ae[i].b);
  }
}

TEST(FailLinks, ThroughputStaysNormalizedUnderHeavyFailures) {
  // Heavy failures disconnect the fat-tree; the failure-robust throughput
  // metric must degrade instead of zeroing or exceeding 1, and distinct
  // seeds must see distinct failure draws even for deterministic families.
  eval::Scenario s;
  s.name = "failures";
  s.topologies = {{.family = "fattree", .fattree_k = 4, .fail_links = 0.4}};
  s.metrics = {Metric::kThroughput};
  s.seeds = {1, 2, 3};
  const auto report = eval::Engine({.threads = 2}).run(s);
  const auto values = report.series(0, -1, "throughput");
  ASSERT_EQ(values.size(), 3u);
  for (double v : values) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_FALSE(values[0] == values[1] && values[1] == values[2])
      << "per-seed failure draws collapsed — fail_links row was shared";
}

TEST(Memoization, SplicedPointsMatchPointsRunAlone) {
  // A sweep with a fixed reference row: the axis only touches the "ramp"
  // topology, so the reference row's cells are byte-identical across points
  // and memoization splices them. A point run alone is a batch of one
  // scenario, with nothing to splice, so it is the reference.
  eval::SweepSpec spec;
  spec.base.name = "memo";
  spec.base.topologies = {
      {.family = "jellyfish", .label = "ref", .switches = 12, .ports = 5, .servers = 12},
      {.family = "jellyfish", .label = "ramp", .switches = 12, .ports = 5, .servers = 12}};
  spec.base.routings = {{"ksp", 4}};
  spec.base.metrics = {Metric::kPathStats, Metric::kThroughput,
                       Metric::kRoutedThroughput};
  spec.base.seeds = {1, 2};
  spec.axes = {{{{"topology.servers", "ramp", {12, 18, 24}}}}};

  eval::BatchStats stats;
  const auto swept = eval::run_sweep(spec, {.threads = 4, .stats = &stats});
  // The reference row has 4 cells per point (2 seeds x {routing-free,
  // ksp}); points 2 and 3 splice all of them.
  EXPECT_EQ(stats.memo_hits, 8);
  const auto points = eval::expand_sweep(spec);
  ASSERT_EQ(swept.points.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    eval::BatchStats alone_stats;
    const auto alone =
        eval::Engine({.threads = 4, .stats = &alone_stats}).run(points[i].scenario);
    EXPECT_EQ(alone_stats.memo_hits, 0);
    EXPECT_EQ(eval::report_to_json(swept.points[i].report).dump(),
              eval::report_to_json(alone).dump())
        << points[i].label;
  }
}

}  // namespace
}  // namespace jf
