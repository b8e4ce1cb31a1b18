// eval/serialize: Scenario/SweepSpec/Report JSON round trips (claims
// included), strict loader error paths, and validity of the shipped
// scenarios/ files.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "eval/engine.h"
#include "eval/field_table.h"
#include "eval/serialize.h"
#include "eval/sweep.h"

namespace jf {
namespace {

eval::Scenario nontrivial_scenario() {
  eval::Scenario s;
  s.name = "round-trip";
  s.topologies = {
      {.family = "jellyfish", .label = "jf", .switches = 20, .ports = 6, .servers = 40},
      {.family = "fattree", .fattree_k = 4},
  };
  s.routings = {{"ecmp", 8}, {"ksp", 4}};
  s.traffic.kind = eval::TrafficSpec::Kind::kHotspot;
  s.traffic.demand = 0.75;
  s.traffic.num_hot = 3;
  s.traffic.fan_in = 5;
  s.metrics = {eval::Metric::kPathStats, eval::Metric::kRoutedThroughput,
               eval::Metric::kCabling};
  s.seeds = {7, 8, 9};
  s.samples_per_seed = 2;
  s.mcf.epsilon = 0.1;
  s.mcf.max_phases = 99;
  s.sim.transport = sim::Transport::kMptcp;
  s.sim.subflows = 4;
  s.sim.shards = 8;
  s.sim.sim.queue_capacity_pkts = 32;
  s.capacity.threshold = 0.9;
  s.cabling_placement = layout::PlacementStyle::kToRInRack;
  return s;
}

TEST(Serialize, ScenarioRoundTripIsByteIdentical) {
  const auto s = nontrivial_scenario();
  const std::string once = eval::scenario_to_json(s).dump(2);
  const auto reloaded = eval::scenario_from_json(json::Value::parse(once));
  const std::string twice = eval::scenario_to_json(reloaded).dump(2);
  EXPECT_EQ(once, twice);
  // Spot-check fields survived.
  EXPECT_EQ(reloaded.name, "round-trip");
  EXPECT_EQ(reloaded.topologies[0].label, "jf");
  EXPECT_EQ(reloaded.traffic.kind, eval::TrafficSpec::Kind::kHotspot);
  EXPECT_EQ(reloaded.sim.transport, sim::Transport::kMptcp);
  EXPECT_EQ(reloaded.sim.shards, 8);
  EXPECT_EQ(reloaded.sim.sim.queue_capacity_pkts, 32);
  EXPECT_EQ(reloaded.metrics[2], eval::Metric::kCabling);
  EXPECT_EQ(reloaded.seeds, (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_EQ(reloaded.cabling_placement, layout::PlacementStyle::kToRInRack);
}

TEST(Serialize, SweepRoundTripIsByteIdentical) {
  eval::SweepSpec spec;
  spec.base = nontrivial_scenario();
  spec.axes = {
      {{{"topology.servers", "jellyfish", {20, 30, 40}}}},
      {{{"routing.width", "", {2, 4}}, {"traffic.demand", "", {0.5, 1.0}}}},
  };
  spec.claims = {
      {.text = "bounded", .a = {"jf", "", "throughput"}, .min = 0.5, .max = 1.0},
      {.text = "growing",
       .a = {"jf", "ksp", "sim_goodput"},
       .b = eval::ClaimSelector{"fattree", "ecmp", "sim_goodput"},
       .op = eval::Claim::Op::kRatio,
       .trend = eval::Claim::Trend::kIncreasing},
  };
  const std::string once = eval::sweep_to_json(spec).dump(2);
  const auto reloaded = eval::sweep_from_json(json::Value::parse(once));
  EXPECT_EQ(once, eval::sweep_to_json(reloaded).dump(2));
  ASSERT_EQ(reloaded.axes.size(), 2u);
  EXPECT_EQ(reloaded.axes[0].entries[0].only, "jellyfish");
  EXPECT_EQ(reloaded.axes[1].entries.size(), 2u);
  ASSERT_EQ(reloaded.claims.size(), 2u);
  EXPECT_EQ(reloaded.claims[0].max.value_or(0.0), 1.0);
  EXPECT_FALSE(reloaded.claims[0].b.has_value());
  EXPECT_EQ(reloaded.claims[1].b->routing, "ecmp");
  EXPECT_EQ(reloaded.claims[1].trend, eval::Claim::Trend::kIncreasing);
  // Unset optionals are left out of the canonical bytes, not written as null.
  EXPECT_EQ(once.find("null"), std::string::npos) << once;
}

// Claims belong to the file, not to a point: every point's Scenario, and
// with it every cell key, is the same with or without them.
TEST(Serialize, ClaimsNeverReachAPointScenario) {
  const eval::SweepSpec spec = eval::load_sweep_file(JF_SCENARIO_DIR "/fig1x.json");
  ASSERT_FALSE(spec.claims.empty());
  eval::SweepSpec bare = spec;
  bare.claims.clear();
  const auto points = eval::expand_sweep(spec);
  const auto bare_points = eval::expand_sweep(bare);
  ASSERT_EQ(points.size(), bare_points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(eval::scenario_to_json(points[i].scenario).dump(),
              eval::scenario_to_json(bare_points[i].scenario).dump());
  }
  EXPECT_EQ(eval::sweep_to_json(bare).dump().find("claims"), std::string::npos);
}

TEST(Serialize, RangeAxisExpandsInclusively) {
  const auto v = json::Value::parse(R"({
    "name": "r",
    "topologies": [{"family": "jellyfish", "switches": 8, "ports": 4, "servers": 8}],
    "sweep": [{"field": "topology.servers", "from": 600, "to": 900, "step": 100}]
  })");
  const auto spec = eval::sweep_from_json(v);
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].entries[0].values, (std::vector<double>{600, 700, 800, 900}));
}

TEST(Serialize, UnknownKeyErrorsNameKeyAndContext) {
  const auto v = json::Value::parse(
      R"({"name": "x", "topologies": [{"family": "jellyfish", "prots": 4}]})");
  try {
    eval::scenario_from_json(v);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("prots"), std::string::npos) << msg;
    EXPECT_NE(msg.find("topologies[0]"), std::string::npos) << msg;
  }
  EXPECT_THROW(eval::scenario_from_json(json::Value::parse(R"({"nmae": "x"})")),
               std::invalid_argument);
}

TEST(Serialize, LoaderErrorPaths) {
  auto load = [](const char* text) {
    return eval::sweep_from_json(json::Value::parse(text));
  };
  // Unknown metric name.
  EXPECT_THROW(load(R"({"metrics": ["throughputt"]})"), std::invalid_argument);
  // Unknown traffic kind / transport / placement.
  EXPECT_THROW(load(R"({"traffic": {"kind": "bursty"}})"), std::invalid_argument);
  EXPECT_THROW(load(R"({"sim": {"transport": "udp"}})"), std::invalid_argument);
  EXPECT_THROW(load(R"({"cabling_placement": "floor"})"), std::invalid_argument);
  // Unknown sweep field.
  EXPECT_THROW(load(R"({"sweep": [{"field": "topology.prots", "values": [1]}]})"),
               std::invalid_argument);
  // Bad ranges: zero step, step moving away from `to`, missing step.
  EXPECT_THROW(load(R"({"sweep": [{"field": "topology.ports", "from": 1, "to": 5, "step": 0}]})"),
               std::invalid_argument);
  EXPECT_THROW(load(R"({"sweep": [{"field": "topology.ports", "from": 5, "to": 1, "step": 2}]})"),
               std::invalid_argument);
  EXPECT_THROW(load(R"({"sweep": [{"field": "topology.ports", "from": 1, "to": 5}]})"),
               std::invalid_argument);
  // values and range are mutually exclusive; empty values rejected.
  EXPECT_THROW(
      load(R"({"sweep": [{"field": "topology.ports", "values": [1], "from": 1, "to": 2, "step": 1}]})"),
      std::invalid_argument);
  EXPECT_THROW(load(R"({"sweep": [{"field": "topology.ports", "values": []}]})"),
               std::invalid_argument);
  // Zipped entries must agree on length.
  EXPECT_THROW(load(R"({"sweep": [{"entries": [
      {"field": "topology.ports", "values": [1, 2]},
      {"field": "topology.switches", "values": [1]}]}]})"),
               std::invalid_argument);
  // Kind mismatches are errors, not coercions, and carry their context path
  // in the message — including non-scalar sections and array elements.
  auto expect_context = [&](const char* text, const char* needle) {
    try {
      load(text);
      FAIL() << "expected std::invalid_argument for " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
      // Load errors speak of the file, never of this library's sources.
      EXPECT_EQ(std::string(e.what()).find(".cc:"), std::string::npos) << e.what();
    }
  };
  expect_context(R"({"topologies": [{"family": "jellyfish", "switches": "eight"}]})",
                 "topologies[0].switches");
  expect_context(R"({"topologies": "nope"})", "topologies");
  expect_context(R"({"seeds": ["one"]})", "seeds");
  expect_context(R"({"seeds": "1"})", "seeds");
  expect_context(R"({"sweep": [{"field": "topology.ports", "values": [true]}]})",
                 "values");
  EXPECT_THROW(load(R"({"samples_per_seed": 1.5})"), std::invalid_argument);
  // 64-bit values that don't fit the int field are hard errors, not silent
  // truncations.
  expect_context(R"({"topologies": [{"family": "jellyfish", "switches": 4294967298}]})",
                 "topologies[0].switches");
  // Fractions outside [0, 1] fail at load time with the field's path.
  expect_context(R"({"topologies": [{"family": "twolayer", "local_fraction": 1.5}]})",
                 "topologies[0].local_fraction");
  expect_context(R"({"topologies": [{"family": "twolayer", "local_fraction": -0.1}]})",
                 "topologies[0].local_fraction");
  expect_context(R"({"topologies": [{"family": "jellyfish", "fail_links": -0.5}]})",
                 "topologies[0].fail_links");
  // Family and scheme names come from closed sets: a typo fails at load
  // time with the field's path, not mid-run in the factory.
  expect_context(R"({"topologies": [{"family": "fattree"}, {"family": "jelyfish"}]})",
                 "scenario.topologies[1].family");
  expect_context(R"({"routings": [{"scheme": "kspp", "width": 8}]})",
                 "scenario.routings[0].scheme");
  // Metric names come from the metric table; the error names the element.
  expect_context(R"({"metrics": ["path_stat"]})",
                 "scenario.metrics[0]: unknown metric 'path_stat'");
  expect_context(R"({"metrics": [7]})", "scenario.metrics[0]");
  // A repeated metric or seed would be counted twice in every aggregate.
  expect_context(R"({"metrics": ["path_stats", "path_stats"]})",
                 "scenario.metrics[1]: repeated metric 'path_stats'");
  expect_context(R"({"seeds": [1, 1, 2]})", "scenario.seeds[1]: repeated seed '1'");
  // Claims: b and op come together, a claim needs a bound or a trend, and
  // its bounds must be ordered.
  expect_context(R"({"claims": [{"text": "t", "a": {"topology": "jf", "metric": "m"},
                                 "op": "ratio", "min": 1}]})",
                 "scenario.claims[0].op: needs 'b'");
  expect_context(R"({"claims": [{"text": "t", "a": {"topology": "jf", "metric": "m"},
                                 "b": {"topology": "ft", "metric": "m"}, "min": 1}]})",
                 "scenario.claims[0].b: needs 'op'");
  expect_context(R"({"claims": [{"text": "t", "a": {"topology": "jf", "metric": "m"}}]})",
                 "scenario.claims[0]: needs 'min', 'max' or 'trend'");
  expect_context(R"({"claims": [{"text": "t", "a": {"topology": "jf", "metric": "m"},
                                 "min": 2, "max": 1}]})",
                 "scenario.claims[0].min: greater than 'max'");
  expect_context(R"({"claims": [{"text": "t", "a": {"topology": "jf", "metric": "m"},
                                 "b": {"topology": "ft", "metric": "m"},
                                 "op": "quotient", "min": 1}]})",
                 "scenario.claims[0].op: unknown claim op 'quotient'");
  expect_context(R"({"claims": [{"text": "t", "a": {"topology": "jf", "metric": "m"},
                                 "trend": "flat"}]})",
                 "scenario.claims[0].trend: unknown trend 'flat'");
  expect_context(R"({"claims": [{"text": "t", "a": {"topology": "jf", "metrc": "m"},
                                 "max": 1}]})",
                 "scenario.claims[0].a: unknown key 'metrc'");
  expect_context(R"({"claims": [{"text": "t", "a": {"topology": "jf"}, "max": 1}]})",
                 "scenario.claims[0].a: missing required key 'metric'");
  expect_context(R"({"claims": [{"a": {"topology": "jf", "metric": "m"}, "max": 1}]})",
                 "scenario.claims[0]: missing required key 'text'");
  expect_context(R"({"claims": [{"text": "t", "a": {"topology": "jf", "metric": "m"},
                                 "max": "one"}]})",
                 "scenario.claims[0].max");
  expect_context(R"({"claims": {"text": "t"}})", "scenario.claims");
  // A plain scenario has no claims.
  EXPECT_THROW(eval::scenario_from_json(json::Value::parse(R"({"claims": []})")),
               std::invalid_argument);
}

// Out-of-range solver options load (they are well-formed numbers), but
// validate_scenario — which `jf_eval print` runs on every sweep point —
// rejects them before any cell runs, naming the field as the file spells it.
TEST(Serialize, McfOptionErrorsNameTheField) {
  const std::pair<const char*, const char*> cases[] = {
      {R"("max_phases": 0)", "mcf.max_phases must be >= 1"},
      {R"("epsilon": 0.5)", "mcf.epsilon must be in (0, 0.5)"},
      {R"("epsilon": 0)", "mcf.epsilon must be in (0, 0.5)"},
      {R"("link_capacity": 0)", "mcf.link_capacity must be > 0"},
      {R"("convergence_window": 0)", "mcf.convergence_window must be >= 1"},
      {R"("convergence_tol": -1)", "mcf.convergence_tol must be >= 0"},
  };
  for (const auto& [field, message] : cases) {
    const std::string text = std::string(R"({"topologies": [{"family": "fattree", "fattree_k": 4}],
        "routings": [{"scheme": "ksp", "width": 8}], "metrics": ["routed_throughput"],
        "seeds": [1], "mcf": {)") + field + "}}";
    const auto points = eval::expand_sweep(eval::sweep_from_json(json::Value::parse(text)));
    ASSERT_EQ(points.size(), 1u);
    try {
      eval::validate_scenario(points[0].scenario);
      ADD_FAILURE() << "accepted " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

TEST(Serialize, SampleRowsRoundTripExactlyAndAggregatesMatch) {
  eval::Scenario s;
  s.name = "report-rt";
  s.topologies = {{.family = "jellyfish", .switches = 12, .ports = 5, .servers = 24}};
  s.routings = {{"ksp", 3}};
  s.metrics = {eval::Metric::kPathStats, eval::Metric::kThroughput,
               eval::Metric::kRoutedThroughput};
  s.seeds = {1, 2, 3};
  const auto report = eval::Engine({.threads = 2}).run(s);
  ASSERT_FALSE(report.samples.empty());

  // The report's sample rows parse back, through the codec the result store
  // reads its payloads with, bit for bit.
  const auto j = eval::report_to_json(report);
  const auto reloaded =
      eval::samples_from_json(*json::Value::parse(j.dump(2)).find("samples"));
  ASSERT_EQ(reloaded.size(), report.samples.size());
  for (std::size_t i = 0; i < report.samples.size(); ++i) {
    EXPECT_EQ(reloaded[i].topology, report.samples[i].topology);
    EXPECT_EQ(reloaded[i].routing, report.samples[i].routing);
    EXPECT_EQ(reloaded[i].seed, report.samples[i].seed);
    EXPECT_EQ(reloaded[i].sample, report.samples[i].sample);
    EXPECT_EQ(reloaded[i].metric, report.samples[i].metric);
    EXPECT_EQ(reloaded[i].value, report.samples[i].value);
  }

  // The serialized aggregates match what the Report computes.
  const auto& aggs = j.find("aggregates")->as_array();
  const auto rows = report.aggregates();
  ASSERT_EQ(aggs.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(aggs[i].find("metric")->as_string(), rows[i].metric);
    EXPECT_DOUBLE_EQ(aggs[i].find("mean")->as_number(), rows[i].summary.mean);
    EXPECT_EQ(aggs[i].find("n")->as_uint(), rows[i].summary.count);
  }
}

TEST(Serialize, ShippedScenarioFilesLoadAndExpand) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(JF_SCENARIO_DIR)) {
    if (e.path().extension() == ".json") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const auto& f : files) {
    SCOPED_TRACE(f.filename().string());
    eval::SweepSpec spec;
    ASSERT_NO_THROW(spec = eval::load_sweep_file(f.string()));
    std::vector<eval::SweepPoint> points;
    ASSERT_NO_THROW(points = eval::expand_sweep(spec));
    EXPECT_FALSE(points.empty());
    // Every point passes the checks `jf_eval print` and `run` apply first.
    for (const eval::SweepPoint& point : points) {
      SCOPED_TRACE(point.label);
      EXPECT_NO_THROW(eval::validate_scenario(point.scenario));
    }
    // The canonical form of every shipped file round-trips byte for byte.
    const std::string once = eval::sweep_to_json(spec).dump(2);
    EXPECT_EQ(eval::sweep_to_json(eval::sweep_from_json(json::Value::parse(once))).dump(2),
              once);
  }
}

// --- completeness, driven by the scenario field table ---

template <typename... Fs>
struct Overload : Fs... {
  using Fs::operator()...;
};

// Sweep specs in which every field table has an instance, one per growth
// schedule shape a row may need: the default schedule; zero initial servers,
// so the uniform-regime network_degree may take any legal value; and one
// explicit step, which excludes the generator's target_switches. Each
// carries one ratio claim, so every claim row has a legal non-default value.
std::vector<eval::SweepSpec> probe_bases() {
  eval::SweepSpec spec;
  spec.base.topologies = {{.family = "jellyfish", .switches = 20, .ports = 6, .servers = 40}};
  spec.base.routings = {{"ksp", 4}};
  spec.claims = {{.text = "claim",
                  .a = {"jf", "", "throughput"},
                  .b = eval::ClaimSelector{"ft", "", "throughput"},
                  .op = eval::Claim::Op::kRatio,
                  .min = 0.5}};
  std::vector<eval::SweepSpec> bases(3, spec);
  bases[1].base.growth.initial.servers = 0;
  bases[2].base.growth.steps = {expansion::GrowthStep{}};
  return bases;
}

// Calls fn(table, pick) for every field table, where pick(spec) points at
// the table's struct inside a probe_bases() spec (nullptr if absent).
template <typename Fn>
void for_each_table(Fn&& fn) {
  namespace f = eval::fields;
  fn(f::kScenario, [](eval::SweepSpec& s) { return &s.base; });
  fn(f::kTopology, [](eval::SweepSpec& s) { return &s.base.topologies[0]; });
  fn(f::kRouting, [](eval::SweepSpec& s) { return &s.base.routings[0]; });
  fn(f::kTraffic, [](eval::SweepSpec& s) { return &s.base.traffic; });
  fn(f::kMcf, [](eval::SweepSpec& s) { return &s.base.mcf; });
  fn(f::kSim, [](eval::SweepSpec& s) { return &s.base.sim; });
  fn(f::kSimNet, [](eval::SweepSpec& s) { return &s.base.sim.sim; });
  fn(f::kCapacity, [](eval::SweepSpec& s) { return &s.base.capacity; });
  fn(f::kGrowth, [](eval::SweepSpec& s) { return &s.base.growth; });
  fn(f::kGrowthInitial, [](eval::SweepSpec& s) { return &s.base.growth.initial; });
  fn(f::kGrowthStep, [](eval::SweepSpec& s) {
    return s.base.growth.steps.empty() ? nullptr : &s.base.growth.steps[0];
  });
  fn(f::kSweep, [](eval::SweepSpec& s) { return &s; });
  fn(f::kClaim, [](eval::SweepSpec& s) { return &s.claims[0]; });
  fn(f::kClaimSelector, [](eval::SweepSpec& s) { return &s.claims[0].a; });
}

template <typename T>
std::vector<T> probe_values() {
  if constexpr (std::is_same_v<T, std::string>) {
    return {"probe"};
  } else if constexpr (std::is_floating_point_v<T> ||
                       std::is_same_v<T, std::optional<double>>) {
    return {0.25, 0.75, 2.5};
  } else {
    return {1, 2, 7, 100};
  }
}

// Sets row `f` to each candidate value in turn, on each probe base. The first
// candidate that changes the written bytes and loads back must round-trip
// byte for byte and survive the load. Returns whether one did.
template <typename S, typename Pick>
bool probe_row(const eval::fields::Field<S>& f, Pick pick) {
  for (const eval::SweepSpec& base : probe_bases()) {
    const std::string base_bytes = eval::sweep_to_json(base).dump(2);
    auto attempt = [&](auto set, auto same) {
      eval::SweepSpec s = base;
      if (pick(s) == nullptr) return false;
      set(*pick(s));
      const std::string once = eval::sweep_to_json(s).dump(2);
      if (once == base_bytes) return false;
      eval::SweepSpec loaded;
      try {
        loaded = eval::sweep_from_json(json::Value::parse(once));
      } catch (const std::invalid_argument&) {
        return false;
      }
      EXPECT_EQ(eval::sweep_to_json(loaded).dump(2), once);
      EXPECT_TRUE(same(*pick(loaded), *pick(s)));
      return true;
    };
    const bool ok = std::visit(
        Overload{
            [&](const eval::fields::Named<S>& n) {
              for (std::string_view name : n.names()) {
                if (attempt([&](S& x) { x.*n.member = std::string(name); },
                            [&](const S& a, const S& b) { return a.*n.member == b.*n.member; })) {
                  return true;
                }
              }
              return false;
            },
            [&](const eval::fields::Enum<S>& e) {
              for (const auto& c : e.choices->names) {
                if (attempt([&](S& x) { e.set(x, c.value); },
                            [&](const S& a, const S& b) { return e.get(a) == e.get(b); })) {
                  return true;
                }
              }
              return false;
            },
            // Containers and nested objects are probed through their own rows.
            [&](const eval::fields::Hook<S>&) { return true; },
            [&](auto m) {
              using T = std::remove_cvref_t<decltype(std::declval<S&>().*m)>;
              for (const T& v : probe_values<T>()) {
                if (attempt([&](S& x) { x.*m = v; },
                            [&](const S& a, const S& b) { return a.*m == b.*m; })) {
                  return true;
                }
              }
              return false;
            }},
        f.member);
    if (ok) return true;
  }
  return false;
}

TEST(Serialize, EveryTableRowRoundTrips) {
  int rows = 0;
  for_each_table([&](const auto& table, auto pick) {
    for (const auto& f : table) {
      SCOPED_TRACE(std::string(f.key));
      EXPECT_TRUE(probe_row(f, pick)) << "no non-default legal value round-trips";
      ++rows;
    }
  });
  EXPECT_GT(rows, 60);
}

TEST(Serialize, EverySweepFieldReachesTheCanonicalBytes) {
  // The canonical bytes are the result-store cell key: a swept value that
  // left them unchanged would let two sweep points share a cached cell.
  for (const auto& field : eval::sweep_fields()) {
    SCOPED_TRACE(field);
    bool changed = false;
    for (const eval::SweepSpec& spec : probe_bases()) {
      const eval::Scenario& base = spec.base;
      const std::string base_bytes = eval::scenario_to_json(base).dump(2);
      for (double v : {0.25, 3.0}) {
        eval::Scenario s = base;
        try {
          eval::apply_sweep_value(s, {field, "", {}}, v);
        } catch (const std::invalid_argument&) {
          continue;
        }
        changed = changed || eval::scenario_to_json(s).dump(2) != base_bytes;
      }
    }
    EXPECT_TRUE(changed) << "no legal swept value changes scenario_to_json";
  }
}

TEST(Serialize, LoadSweepFileMissingFileThrows) {
  EXPECT_THROW(eval::load_sweep_file("/nonexistent/nope.json"), std::runtime_error);
}

}  // namespace
}  // namespace jf
