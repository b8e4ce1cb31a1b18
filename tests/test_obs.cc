// obs/metrics + obs/trace, and the repo-wide invariant they must uphold:
// collection is purely observational, so reports stay byte-identical with
// observability off or on, at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "eval/engine.h"
#include "flow/restricted.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/path_provider.h"

namespace jf {
namespace {

// Every test leaves collection the way it found it (off, the process-wide
// default) so tests cannot leak enabled-state into each other.
struct ObsGuard {
  ObsGuard(bool metrics, bool trace) {
    obs::set_metrics_enabled(metrics);
    obs::set_trace_enabled(trace);
  }
  ~ObsGuard() {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
  }
};

// --- metrics: deterministic merge ---

TEST(ObsMetrics, CounterMergeExactAcrossThreadCounts) {
  ObsGuard on(/*metrics=*/true, /*trace=*/false);
  const int n = 10000;
  for (int threads : {1, 4}) {
    obs::Counter c;  // standalone instance: no cross-test registry pollution
    parallel::WorkBudget budget(threads - 1);
    parallel::parallel_for(n, &budget, [&](int i) { c.add(i); });
    // Striped relaxed adds merge by integer summation — the total is exact
    // regardless of how indices were scheduled onto threads.
    EXPECT_EQ(c.value(), static_cast<std::int64_t>(n) * (n - 1) / 2) << threads;
    c.reset();
    EXPECT_EQ(c.value(), 0);
  }
}

TEST(ObsMetrics, DistributionMergeExactAcrossThreadCounts) {
  ObsGuard on(/*metrics=*/true, /*trace=*/false);
  const int n = 5000;
  for (int threads : {1, 4}) {
    obs::Distribution d;
    parallel::WorkBudget budget(threads - 1);
    parallel::parallel_for(n, &budget, [&](int i) { d.record(i + 1); });
    const obs::DistributionSnapshot snap = d.snapshot();
    EXPECT_EQ(snap.count, n);
    EXPECT_EQ(snap.sum, static_cast<std::int64_t>(n) * (n + 1) / 2);
    EXPECT_EQ(snap.min, 1);
    EXPECT_EQ(snap.max, n);
    std::int64_t bucketed = 0;
    std::int64_t prev_lo = -1;
    for (const auto& [lo, count] : snap.buckets) {
      EXPECT_GT(lo, prev_lo);  // ascending, non-empty buckets only
      EXPECT_GT(count, 0);
      prev_lo = lo;
      bucketed += count;
    }
    EXPECT_EQ(bucketed, snap.count);
  }
}

TEST(ObsMetrics, DisabledRecordsNothing) {
  ObsGuard off(/*metrics=*/false, /*trace=*/false);
  obs::Counter c;
  obs::Distribution d;
  c.add(42);
  d.record(42);
  {
    obs::ScopedTimer t(d);
  }
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(d.count(), 0);
}

TEST(ObsMetrics, RegistryHandlesAreStableAndKindChecked) {
  obs::Counter& a = obs::counter("test_obs.registry_counter");
  obs::Counter& b = obs::counter("test_obs.registry_counter");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(obs::gauge("test_obs.registry_counter"), std::invalid_argument);
  EXPECT_THROW(obs::distribution("test_obs.registry_counter"), std::invalid_argument);
}

TEST(ObsMetrics, JsonDumpRoundTripsThroughParser) {
  ObsGuard on(/*metrics=*/true, /*trace=*/false);
  obs::counter("test_obs.json_counter").add(7);
  obs::gauge("test_obs.json_gauge").set(-3);
  obs::distribution("test_obs.json_dist").record(1000);
  const json::Value v = obs::metrics_to_json(obs::collect_metrics());
  const json::Value back = json::Value::parse(v.dump());
  const json::Value* counters = back.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("test_obs.json_counter"), nullptr);
  EXPECT_EQ(counters->find("test_obs.json_counter")->as_int(), 7);
  const json::Value* gauges = back.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->find("test_obs.json_gauge")->as_int(), -3);
  const json::Value* dists = back.find("distributions");
  ASSERT_NE(dists, nullptr);
  const json::Value* dist = dists->find("test_obs.json_dist");
  ASSERT_NE(dist, nullptr);
  EXPECT_EQ(dist->find("count")->as_int(), 1);
  EXPECT_EQ(dist->find("sum")->as_int(), 1000);
  ASSERT_NE(dist->find("buckets"), nullptr);
}

// --- tracing: spans, nesting, Chrome-trace shape ---

TEST(ObsTrace, SpanNestingProducesWellFormedChromeJson) {
  ObsGuard on(/*metrics=*/false, /*trace=*/true);
  obs::reset_trace();
  {
    obs::Span outer("test_obs.outer", "test");
    outer.arg("k1", 11);
    outer.arg("k2", 22);
    outer.arg("k3", 33);
    outer.arg("k4", 44);
    outer.arg("k5", 55);
    outer.arg("k6", 66);  // past kMaxSpanArgs: dropped
    {
      obs::Span inner("test_obs.inner", "test");
    }
  }
  EXPECT_EQ(obs::trace_event_count(), 2u);

  // The export must survive a round-trip through the repo's own parser (the
  // same format chrome://tracing and Perfetto load).
  const json::Value trace = json::Value::parse(obs::trace_to_json().dump());
  const json::Value* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  const auto& arr = events->as_array();
  ASSERT_EQ(arr.size(), 2u);
  ASSERT_NE(trace.find("otherData"), nullptr);
  EXPECT_EQ(trace.find("otherData")->find("dropped_events")->as_int(), 0);

  // Events are sorted by start time with parents before children, so the
  // outer span comes first and must contain the inner one.
  const json::Value& outer = arr[0];
  const json::Value& inner = arr[1];
  EXPECT_EQ(outer.find("name")->as_string(), "test_obs.outer");
  EXPECT_EQ(inner.find("name")->as_string(), "test_obs.inner");
  for (const json::Value* ev : {&outer, &inner}) {
    EXPECT_EQ(ev->find("ph")->as_string(), "X");
    ASSERT_NE(ev->find("ts"), nullptr);
    ASSERT_NE(ev->find("dur"), nullptr);
    ASSERT_NE(ev->find("pid"), nullptr);
    ASSERT_NE(ev->find("tid"), nullptr);
  }
  const double o_ts = outer.find("ts")->as_number();
  const double o_end = o_ts + outer.find("dur")->as_number();
  const double i_ts = inner.find("ts")->as_number();
  const double i_end = i_ts + inner.find("dur")->as_number();
  EXPECT_LE(o_ts, i_ts);
  EXPECT_LE(i_end, o_end);
  // Same thread: equal tids.
  EXPECT_EQ(outer.find("tid")->as_int(), inner.find("tid")->as_int());
  const json::Value* args = outer.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("k1")->as_int(), 11);
  EXPECT_EQ(args->find("k2")->as_int(), 22);
  EXPECT_EQ(args->find("k3")->as_int(), 33);
  EXPECT_EQ(args->find("k4")->as_int(), 44);
  EXPECT_EQ(args->find("k5")->as_int(), 55);
  EXPECT_EQ(args->find("k6"), nullptr);

  obs::reset_trace();
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(ObsTrace, WorkerThreadSpansSurviveThreadExit) {
  ObsGuard on(/*metrics=*/false, /*trace=*/true);
  obs::reset_trace();
  parallel::WorkBudget budget(3);
  parallel::parallel_for(8, &budget, [&](int i) {
    obs::Span span("test_obs.worker", "test");
    span.arg("index", i);
  });
  // All 8 spans are exported even though the borrowed worker threads have
  // exited: the registry keeps their ring buffers alive.
  const json::Value trace = obs::trace_to_json();
  EXPECT_EQ(trace.find("traceEvents")->as_array().size(), 8u);
  obs::reset_trace();
}

TEST(ObsTrace, DisabledSpansCostNothingAndRecordNothing) {
  ObsGuard off(/*metrics=*/false, /*trace=*/false);
  obs::reset_trace();
  {
    obs::Span span("test_obs.disabled", "test");
    span.arg("x", 1);
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

// --- parallel: slot accounting ---

TEST(ObsParallel, BudgetTotalAndTeamAccounting) {
  ObsGuard on(/*metrics=*/true, /*trace=*/false);
  parallel::WorkBudget budget(3);
  EXPECT_EQ(budget.total(), 3);
  EXPECT_EQ(budget.available(), 3);

  const std::int64_t rounds0 = obs::counter("parallel.team_rounds").value();
  const std::int64_t busy0 = obs::counter("parallel.team_busy_ns").value();
  {
    parallel::WorkerTeam team(&budget, 3);
    ASSERT_EQ(team.size(), 4);
    EXPECT_EQ(budget.available(), 0);
    std::atomic<int> hits{0};
    team.run(16, [&](int, int) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 16);
  }
  // Slots returned on team destruction; total() is unchanged (it is the
  // denominator, not a live count).
  EXPECT_EQ(budget.available(), 3);
  EXPECT_EQ(budget.total(), 3);
  EXPECT_EQ(obs::counter("parallel.team_rounds").value(), rounds0 + 1);
  EXPECT_GT(obs::counter("parallel.team_busy_ns").value(), busy0);
}

// --- routing and restricted-MCF counters: exact on hand-counted inputs ---

// The events named `name` in the current trace.
std::vector<json::Value> trace_events(const std::string& name) {
  std::vector<json::Value> out;
  const json::Value trace = json::Value::parse(obs::trace_to_json().dump());
  for (const json::Value& ev : trace.find("traceEvents")->as_array()) {
    if (ev.find("name")->as_string() == name) out.push_back(ev);
  }
  return out;
}

// The 4-cycle 0-1-2-3-0, counted by hand. KSP-4 from 0 to 2: the BFS from
// 2 labels 1 and 3 (distance 1) and 0 (distance 2), so d = 2. Length 2
// steps 0->1->2 and 0->3->2: 4 steps, 2 paths. No step was pruned as too
// far from 2 (0's neighbors are both taken; 1 and 3 have no neighbor
// besides 0 and 2), so no simple 0-2 path is longer and length 3 is never
// tried. So: 1 pair, 2 paths, 4 DFS steps, no fallback to Yen. ECMP's
// (0,2) and (1,3) add 2 pairs, 2 paths and 4 steps each (the same DFS).
TEST(ObsRouting, CountersExactOnFourCycle) {
  ObsGuard on(/*metrics=*/true, /*trace=*/true);
  obs::reset_metrics();
  obs::reset_trace();
  graph::Graph g(4);
  for (graph::NodeId v = 0; v < 4; ++v) g.add_edge(v, (v + 1) % 4);

  routing::PathProvider ksp(g, {"ksp", 4});
  EXPECT_EQ(ksp.paths(0, 2).size(), 2u);
  EXPECT_EQ(ksp.paths(0, 2).size(), 2u);  // cached: counts nothing
  EXPECT_EQ(obs::counter("routing.pairs").value(), 1);
  EXPECT_EQ(obs::counter("routing.paths").value(), 2);
  EXPECT_EQ(obs::counter("routing.dfs_steps").value(), 4);
  EXPECT_EQ(obs::counter("routing.ksp_fallbacks").value(), 0);

  // warm() computes each uncached pair once, however often it is listed.
  routing::PathProvider ecmp(g, {"ecmp", 8});
  const std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs = {{0, 2}, {0, 2}, {1, 3}};
  parallel::WorkBudget budget(2);
  ecmp.warm(pairs, &budget);
  ecmp.warm(pairs, &budget);  // all cached: a span with zero counts
  EXPECT_EQ(obs::counter("routing.pairs").value(), 3);
  EXPECT_EQ(obs::counter("routing.paths").value(), 6);
  EXPECT_EQ(obs::counter("routing.dfs_steps").value(), 12);
  EXPECT_EQ(obs::counter("routing.ksp_fallbacks").value(), 0);

  const std::vector<json::Value> warms = trace_events("routing.warm");
  ASSERT_EQ(warms.size(), 2u);
  EXPECT_EQ(warms[0].find("args")->find("pairs")->as_int(), 2);
  EXPECT_EQ(warms[0].find("args")->find("paths")->as_int(), 4);
  EXPECT_EQ(warms[1].find("args")->find("pairs")->as_int(), 0);
  EXPECT_EQ(warms[1].find("args")->find("paths")->as_int(), 0);
  obs::reset_trace();
}

// One commodity on one link with one allowed path and demand equal to the
// capacity: each phase prices the path once, and so does each dual bound
// (every max(4, convergence_window) phases, plus the final one).
TEST(ObsRestricted, CountersAndSpanExactOnOneLink) {
  ObsGuard on(/*metrics=*/true, /*trace=*/true);
  obs::reset_metrics();
  obs::reset_trace();
  graph::Graph g(2);
  g.add_edge(0, 1);
  auto routes = routing::make_path_provider(g, routing::RoutingSpec{"ksp", 1});
  const flow::McfOptions opts;
  const std::vector<traffic::Commodity> one = {{0, 1, 1.0}};
  const flow::McfResult r = flow::restricted_max_concurrent_flow(g, one, *routes, opts);
  ASSERT_GT(r.phases, 0);
  const int dual_every = std::max(4, opts.convergence_window);
  EXPECT_EQ(obs::counter("restricted.solves").value(), 1);
  EXPECT_EQ(obs::counter("restricted.phases").value(), r.phases);
  EXPECT_EQ(obs::counter("restricted.path_evals").value(), r.phases + r.phases / dual_every + 1);

  // An early exit (a commodity with no allowed path) still closes its span
  // with the phase count.
  graph::Graph cut(3);
  cut.add_edge(0, 1);
  auto cut_routes = routing::make_path_provider(cut, routing::RoutingSpec{"ksp", 1});
  const std::vector<traffic::Commodity> unroutable = {{0, 2, 1.0}};
  EXPECT_EQ(flow::restricted_max_concurrent_flow(cut, unroutable, *cut_routes, opts).lambda, 0.0);
  EXPECT_EQ(obs::counter("restricted.solves").value(), 2);
  EXPECT_EQ(obs::counter("restricted.phases").value(), r.phases);

  const std::vector<json::Value> solves = trace_events("restricted.solve");
  ASSERT_EQ(solves.size(), 2u);
  EXPECT_EQ(solves[0].find("args")->find("phases")->as_int(), r.phases);
  EXPECT_EQ(solves[1].find("args")->find("phases")->as_int(), 0);
  obs::reset_trace();
}

// --- the invariant: observability cannot change results ---

eval::Scenario obs_scenario() {
  eval::Scenario s;
  s.name = "obs-identity";
  s.topologies = {{.family = "jellyfish", .switches = 12, .ports = 5, .servers = 18}};
  s.routings = {{"ksp", 3}};
  s.metrics = {eval::Metric::kThroughput, eval::Metric::kRoutedThroughput};
  s.seeds = {1, 2};
  return s;
}

void expect_reports_bit_identical(const eval::Report& a, const eval::Report& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& x = a.samples[i];
    const auto& y = b.samples[i];
    EXPECT_EQ(x.metric, y.metric) << i;
    EXPECT_EQ(x.topology, y.topology) << i;
    EXPECT_EQ(x.routing, y.routing) << i;
    EXPECT_EQ(x.seed, y.seed) << i;
    EXPECT_EQ(x.sample, y.sample) << i;
    // Bit-for-bit, not approximately: the observability layer must never
    // perturb a single floating-point operation.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.value), std::bit_cast<std::uint64_t>(y.value))
        << i << " " << x.metric;
  }
}

TEST(ObsInvariant, ReportByteIdenticalWithObservabilityOnOrOff) {
  const eval::Scenario s = obs_scenario();
  eval::Report baseline;
  {
    ObsGuard off(/*metrics=*/false, /*trace=*/false);
    baseline = eval::Engine({.threads = 1}).run(s);
  }
  ASSERT_GT(baseline.samples.size(), 0u);
  for (int threads : {1, 4}) {
    ObsGuard on(/*metrics=*/true, /*trace=*/true);
    obs::reset_trace();
    const eval::Report traced = eval::Engine({.threads = threads}).run(s);
    expect_reports_bit_identical(baseline, traced);
    // And the run actually recorded telemetry — the invariant must not hold
    // vacuously because collection silently stayed off.
    EXPECT_GT(obs::trace_event_count(), 0u);
    obs::reset_trace();
  }
  EXPECT_GT(obs::counter("engine.cells").value(), 0);
  EXPECT_GT(obs::counter("mcf.solves").value(), 0);
}

}  // namespace
}  // namespace jf
