#include "eval/serialize.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "eval/field_table.h"
#include "eval/topology_factory.h"

// gcc 12 emits spurious -Warray-bounds through the inlined realloc path of
// vector<pair<string, Value>>::emplace_back (GCC PR 104475); every
// emplacement here targets a local vector, so the diagnostic is noise.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif

namespace jf::eval {

namespace {

using json::Array;
using json::Object;
using json::Value;

[[noreturn]] void schema_error(const std::string& ctx, const std::string& msg) {
  throw std::invalid_argument(ctx + ": " + msg);
}

// Strict object walker: every key must be consumed via get()/require()
// before done(), which rejects leftovers by name.
class ObjectReader {
 public:
  ObjectReader(const Value& v, std::string ctx) : ctx_(std::move(ctx)) {
    if (!v.is_object()) {
      schema_error(ctx_, "expected object, got " +
                             std::string(Value::kind_name(v.kind())));
    }
    obj_ = &v.as_object();
    used_.assign(obj_->size(), false);
  }

  const Value* get(std::string_view key) {
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      if ((*obj_)[i].first == key) {
        used_[i] = true;
        return &(*obj_)[i].second;
      }
    }
    return nullptr;
  }

  void done() {
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      if (!used_[i]) schema_error(ctx_, "unknown key '" + (*obj_)[i].first + "'");
    }
  }

  std::string path(std::string_view key) const { return ctx_ + "." + std::string(key); }

  // Typed readers; absent keys keep the caller's default and return false.
  // Kind mismatches are rethrown with the field's context path
  // ("scenario.topologies[0].switches: json: expected number, got string").
  bool read(std::string_view key, std::string& out) {
    return read_as(key, out, [](const Value& v) { return v.as_string(); });
  }
  bool read(std::string_view key, int& out) {
    return read_as(key, out, [](const Value& v) {
      const std::int64_t x = v.as_int();
      if (x < std::numeric_limits<int>::min() || x > std::numeric_limits<int>::max()) {
        throw std::runtime_error("json: integer " + std::to_string(x) + " out of int range");
      }
      return static_cast<int>(x);
    });
  }
  bool read(std::string_view key, double& out) {
    return read_as(key, out, [](const Value& v) { return v.as_number(); });
  }
  bool read(std::string_view key, std::int64_t& out) {
    return read_as(key, out, [](const Value& v) { return v.as_int(); });
  }

 private:
  template <typename T, typename As>
  bool read_as(std::string_view key, T& out, As&& as) {
    const Value* v = get(key);
    if (v == nullptr) return false;
    try {
      out = as(*v);
    } catch (const std::runtime_error& e) {
      schema_error(path(key), e.what());
    }
    return true;
  }

  std::string ctx_;
  const Object* obj_ = nullptr;
  std::vector<bool> used_;
};

// Runs fn, rethrowing JSON accessor errors with the context path prepended
// (for array/element reads that don't go through ObjectReader::read).
template <typename Fn>
auto with_ctx(const std::string& ctx, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::runtime_error& e) {
    schema_error(ctx, e.what());
  }
}

}  // namespace

// --- the scenario field table (eval/field_table.h) ---

namespace fields {
namespace {

template <typename... Fs>
struct Overload : Fs... {
  using Fs::operator()...;
};

// The struct a member pointer belongs to: decltype(owner_of(M)).
template <typename S, typename T>
S owner_of(T S::*);

// The value's name, or null (not written) for a value the set leaves
// unnamed, such as an optional enum's unset state.
Value choice_name(const Choices& c, int value) {
  for (const Choice& ch : c.names) {
    if (ch.value == value) return Value(std::string(ch.name));
  }
  return Value();
}

[[noreturn]] void unknown_name(std::string_view noun, const std::string& name,
                               const std::string& ctx) {
  schema_error(ctx, "unknown " + std::string(noun) + " '" + name + "'");
}

const Choice& find_choice(const Choices& c, const std::string& name, const std::string& ctx) {
  for (const Choice& ch : c.names) {
    if (ch.name == name) return ch;
  }
  unknown_name(c.noun, name, ctx);
}

// The canonical writer: every row, in table order, except unset optionals.
template <typename S>
Object write_fields(Table<S> rows, const S& obj) {
  Object o;
  o.reserve(rows.size());
  for (const Field<S>& f : rows) {
    Value v = std::visit(
        Overload{[&](const Named<S>& n) { return Value(obj.*n.member); },
                 [&](const Enum<S>& e) { return choice_name(*e.choices, e.get(obj)); },
                 [&](const Hook<S>& h) { return h.write(obj); },
                 [&](std::optional<double> S::*m) { return obj.*m ? Value(*(obj.*m)) : Value(); },
                 [&](auto m) { return Value(obj.*m); }},
        f.member);
    if (!v.is_null()) o.emplace_back(std::string(f.key), std::move(v));
  }
  return o;
}

// The strict loader: absent keys keep obj's defaults; the caller's done()
// rejects keys no row consumed.
template <typename S>
void read_fields(ObjectReader& r, Table<S> rows, S& obj) {
  for (const Field<S>& f : rows) {
    std::visit(Overload{[&](const Named<S>& n) {
                          std::string& name = obj.*n.member;
                          const std::span<const std::string_view> names = n.names();
                          if (r.read(f.key, name) &&
                              std::ranges::find(names, name) == names.end()) {
                            unknown_name(n.noun, name, r.path(f.key));
                          }
                        },
                        [&](const Enum<S>& e) {
                          std::string name;
                          if (r.read(f.key, name)) {
                            e.set(obj, find_choice(*e.choices, name, r.path(f.key)).value);
                          }
                        },
                        [&](const Hook<S>& h) {
                          if (const Value* v = r.get(f.key)) h.read(*v, obj, r.path(f.key));
                        },
                        [&](double S::*m) {
                          if (r.read(f.key, obj.*m) && f.rule == Rule::kUnit &&
                              !(obj.*m >= 0.0 && obj.*m <= 1.0)) {
                            schema_error(r.path(f.key), "must be in [0, 1]");
                          }
                        },
                        [&](std::optional<double> S::*m) {
                          double x = 0.0;
                          if (r.read(f.key, x)) obj.*m = x;
                        },
                        [&](auto m) { r.read(f.key, obj.*m); }},
               f.member);
  }
}

template <typename S>
S object_from_json(Table<S> rows, const Value& v, const std::string& ctx) {
  ObjectReader r(v, ctx);
  S obj;
  read_fields(r, rows, obj);
  r.done();
  return obj;
}

template <auto M>
constexpr auto enum_member(const Choices& c) {
  using S = decltype(owner_of(M));
  return Enum<S>{&c, [](const S& s) { return static_cast<int>(s.*M); },
                 [](S& s, int v) { s.*M = static_cast<std::remove_cvref_t<decltype(s.*M)>>(v); }};
}

// A nested object member described by its own table.
template <auto M, const auto& Rows>
constexpr auto nested() {
  using S = decltype(owner_of(M));
  return Hook<S>{[](const S& s) { return Value(write_fields(Rows, s.*M)); },
                 [](const Value& v, S& s, const std::string& ctx) {
                   s.*M = object_from_json(Rows, v, ctx);
                 }};
}

// An optional nested object member: written only when set.
template <auto M, const auto& Rows>
constexpr auto optional_nested() {
  using S = decltype(owner_of(M));
  return Hook<S>{[](const S& s) { return s.*M ? Value(write_fields(Rows, *(s.*M))) : Value(); },
                 [](const Value& v, S& s, const std::string& ctx) {
                   s.*M = object_from_json(Rows, v, ctx);
                 }};
}

// A vector member of objects described by one table.
template <auto M, const auto& Rows>
constexpr auto array_of() {
  using S = decltype(owner_of(M));
  return Hook<S>{[](const S& s) {
                   Array a;
                   for (const auto& x : s.*M) a.emplace_back(write_fields(Rows, x));
                   return Value(std::move(a));
                 },
                 [](const Value& v, S& s, const std::string& ctx) {
                   const Array& arr =
                       with_ctx(ctx, [&]() -> const Array& { return v.as_array(); });
                   (s.*M).clear();
                   for (std::size_t i = 0; i < arr.size(); ++i) {
                     (s.*M).push_back(
                         object_from_json(Rows, arr[i], ctx + "[" + std::to_string(i) + "]"));
                   }
                 }};
}

constexpr Choice kTrafficKindNames[] = {
    {"permutation", static_cast<int>(TrafficSpec::Kind::kPermutation)},
    {"all_to_all", static_cast<int>(TrafficSpec::Kind::kAllToAll)},
    {"hotspot", static_cast<int>(TrafficSpec::Kind::kHotspot)},
};
constexpr Choice kTransportNames[] = {
    {"tcp", static_cast<int>(sim::Transport::kTcp)},
    {"mptcp", static_cast<int>(sim::Transport::kMptcp)},
};
constexpr Choice kPlacementNames[] = {
    {"tor-in-rack", static_cast<int>(layout::PlacementStyle::kToRInRack)},
    {"switch-cluster", static_cast<int>(layout::PlacementStyle::kCentralCluster)},
};
constexpr Choices kTrafficKinds{"traffic kind", kTrafficKindNames};
constexpr Choices kTransports{"transport", kTransportNames};
constexpr Choices kPlacements{"cabling placement", kPlacementNames};

// A topology row's empty growth_policy defers to the schedule's policy.
constexpr std::string_view kPolicyNames[] = {"", "jellyfish", "clos"};
std::span<const std::string_view> row_growth_policies() { return kPolicyNames; }
std::span<const std::string_view> growth_policies() {
  return std::span(kPolicyNames).subspan(1);
}

constexpr Field<TopologySpec> kTopologyRows[] = {
    {"family", Named<TopologySpec>{&TopologySpec::family, "topology family", topology_families}},
    {"label", &TopologySpec::label},
    {"switches", &TopologySpec::switches, Rule::kCount},
    {"ports", &TopologySpec::ports, Rule::kCount},
    {"servers", &TopologySpec::servers, Rule::kCount},
    {"fattree_k", &TopologySpec::fattree_k, Rule::kCount},
    {"degree", &TopologySpec::degree, Rule::kCount},
    {"servers_per_switch", &TopologySpec::servers_per_switch, Rule::kCount},
    {"containers", &TopologySpec::containers, Rule::kCount},
    {"switches_per_container", &TopologySpec::switches_per_container, Rule::kCount},
    {"network_degree", &TopologySpec::network_degree, Rule::kCount},
    {"local_fraction", &TopologySpec::local_fraction, Rule::kUnit},
    {"grow_from", &TopologySpec::grow_from, Rule::kCount},
    {"grow_step", &TopologySpec::grow_step, Rule::kCount},
    {"fail_links", &TopologySpec::fail_links, Rule::kUnit},
    {"growth_policy",
     Named<TopologySpec>{&TopologySpec::growth_policy, "growth policy", row_growth_policies}},
};

constexpr Field<routing::RoutingSpec> kRoutingRows[] = {
    {"scheme", Named<routing::RoutingSpec>{&routing::RoutingSpec::scheme, "routing scheme",
                                           routing::path_provider_schemes}},
    {"width", &routing::RoutingSpec::width, Rule::kCount},
};

constexpr Field<TrafficSpec> kTrafficRows[] = {
    {"kind", enum_member<&TrafficSpec::kind>(kTrafficKinds)},
    {"demand", &TrafficSpec::demand, Rule::kAny},
    {"num_hot", &TrafficSpec::num_hot, Rule::kCount},
    {"fan_in", &TrafficSpec::fan_in, Rule::kCount},
};

constexpr Field<flow::McfOptions> kMcfRows[] = {
    {"epsilon", &flow::McfOptions::epsilon},
    {"max_phases", &flow::McfOptions::max_phases},
    {"convergence_tol", &flow::McfOptions::convergence_tol},
    {"convergence_window", &flow::McfOptions::convergence_window},
    {"decide_threshold", &flow::McfOptions::decide_threshold},
    {"link_capacity", &flow::McfOptions::link_capacity},
};

constexpr Field<sim::SimConfig> kSimNetRows[] = {
    {"link_rate_bps", &sim::SimConfig::link_rate_bps},
    {"link_delay_ns", &sim::SimConfig::link_delay_ns},
    {"queue_capacity_pkts", &sim::SimConfig::queue_capacity_pkts},
    {"payload_bytes", &sim::SimConfig::payload_bytes},
    {"ack_bytes", &sim::SimConfig::ack_bytes},
    {"initial_cwnd_pkts", &sim::SimConfig::initial_cwnd_pkts},
    {"min_rto_ns", &sim::SimConfig::min_rto_ns},
    {"initial_rto_ns", &sim::SimConfig::initial_rto_ns},
    {"max_rto_ns", &sim::SimConfig::max_rto_ns},
    {"loss_feedback_floor_ns", &sim::SimConfig::loss_feedback_floor_ns},
};

constexpr Field<sim::WorkloadConfig> kSimRows[] = {
    {"transport", enum_member<&sim::WorkloadConfig::transport>(kTransports)},
    {"parallel_connections", &sim::WorkloadConfig::parallel_connections, Rule::kCount},
    {"subflows", &sim::WorkloadConfig::subflows, Rule::kCount},
    {"shards", &sim::WorkloadConfig::shards, Rule::kCount},
    {"warmup_ns", &sim::WorkloadConfig::warmup_ns},
    {"measure_ns", &sim::WorkloadConfig::measure_ns},
    {"start_jitter_ns", &sim::WorkloadConfig::start_jitter_ns},
    {"flow_size_bytes", &sim::WorkloadConfig::flow_size_bytes},
    {"telemetry_epoch_ns", &sim::WorkloadConfig::telemetry_epoch_ns},
    {"net", nested<&sim::WorkloadConfig::sim, kSimNet>()},
};

constexpr Field<flow::CapacitySearchOptions> kCapacityRows[] = {
    {"matrices_per_check", &flow::CapacitySearchOptions::matrices_per_check},
    {"threshold", &flow::CapacitySearchOptions::threshold},
    {"verify_matrices", &flow::CapacitySearchOptions::verify_matrices},
};

constexpr Field<expansion::GrowthStep> kGrowthStepRows[] = {
    {"add_switches", &expansion::GrowthStep::add_switches},
    {"min_servers", &expansion::GrowthStep::min_servers},
    {"budget", &expansion::GrowthStep::budget, Rule::kNonNeg},
    {"rewire_limit", &expansion::GrowthStep::rewire_limit},
};

constexpr Field<expansion::InitialBuild> kGrowthInitialRows[] = {
    {"switches", &expansion::InitialBuild::switches},
    {"ports", &expansion::InitialBuild::ports_per_switch},
    {"servers", &expansion::InitialBuild::servers},
};

// The generator fields are ignored whenever explicit steps exist — sweeping
// them there would silently evaluate N identical points.
void reject_over_explicit_steps(expansion::GrowthSchedule& g, const std::string& field) {
  if (!g.steps.empty()) {
    throw std::invalid_argument("sweep field '" + field +
                                "': schedule has explicit steps (sweep growth.budget or "
                                "growth.rewire_limit instead)");
  }
}

// The swept cap applies to the generator default and every explicit step.
void copy_rewire_limit_to_steps(expansion::GrowthSchedule& g, const std::string&) {
  for (auto& step : g.steps) step.rewire_limit = g.rewire_limit;
}

constexpr Field<expansion::GrowthSchedule> kGrowthRows[] = {
    {"policy", Named<expansion::GrowthSchedule>{&expansion::GrowthSchedule::policy,
                                                "growth policy", growth_policies}},
    {"initial", nested<&expansion::GrowthSchedule::initial, kGrowthInitial>()},
    {"network_degree", &expansion::GrowthSchedule::network_degree},
    {"steps", array_of<&expansion::GrowthSchedule::steps, kGrowthStep>()},
    {"target_switches", &expansion::GrowthSchedule::target_switches, Rule::kCount,
     reject_over_explicit_steps},
    // Listed before target_switches in sweep_fields(), as it always was.
    {"step_switches", &expansion::GrowthSchedule::step_switches, Rule::kCount,
     reject_over_explicit_steps, true},
    {"rewire_limit", &expansion::GrowthSchedule::rewire_limit, Rule::kLimit,
     copy_rewire_limit_to_steps},
};

Value metrics_to_json(const Scenario& s) {
  Array metrics;
  for (Metric m : s.metrics) metrics.emplace_back(std::string(metric_info(m).name));
  return Value(std::move(metrics));
}

// Reads a non-empty array of distinct elements: a repeated metric or seed
// would count its samples twice in every aggregate.
template <typename T, typename ReadOne>
void read_distinct(const Value& v, std::vector<T>& out, const std::string& ctx,
                   std::string_view noun, ReadOne&& read_one) {
  out.clear();
  const Array& arr = with_ctx(ctx, [&]() -> const Array& { return v.as_array(); });
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const std::string elem = ctx + "[" + std::to_string(i) + "]";
    const T x = read_one(arr[i], elem);
    if (std::ranges::find(out, x) != out.end()) {
      const std::string shown = arr[i].is_string() ? arr[i].as_string() : arr[i].dump();
      schema_error(elem, "repeated " + std::string(noun) + " '" + shown + "'");
    }
    out.push_back(x);
  }
  if (out.empty()) schema_error(ctx, "must be non-empty");
}

void metrics_from_json(const Value& v, Scenario& s, const std::string& ctx) {
  read_distinct(v, s.metrics, ctx, "metric", [](const Value& m, const std::string& elem) {
    const std::string name = with_ctx(elem, [&] { return m.as_string(); });
    for (const MetricInfo& row : metric_table()) {
      if (row.name == name) return row.metric;
    }
    unknown_name("metric", name, elem);
  });
}

Value seeds_to_json(const Scenario& s) {
  Array seeds;
  for (std::uint64_t seed : s.seeds) seeds.emplace_back(seed);
  return Value(std::move(seeds));
}

void seeds_from_json(const Value& v, Scenario& s, const std::string& ctx) {
  read_distinct(v, s.seeds, ctx, "seed", [](const Value& seed, const std::string& elem) {
    return with_ctx(elem, [&] { return seed.as_uint(); });
  });
}

constexpr Field<Scenario> kScenarioRows[] = {
    {"name", &Scenario::name},
    {"topologies", array_of<&Scenario::topologies, kTopology>()},
    {"routings", array_of<&Scenario::routings, kRouting>()},
    {"traffic", nested<&Scenario::traffic, kTraffic>()},
    {"metrics", Hook<Scenario>{metrics_to_json, metrics_from_json}},
    {"seeds", Hook<Scenario>{seeds_to_json, seeds_from_json}},
    {"samples_per_seed", &Scenario::samples_per_seed, Rule::kCount},
    {"mcf", nested<&Scenario::mcf, kMcf>()},
    {"sim", nested<&Scenario::sim, kSim>()},
    {"capacity", nested<&Scenario::capacity, kCapacity>()},
    {"growth", nested<&Scenario::growth, kGrowth>()},
    {"cabling_placement", enum_member<&Scenario::cabling_placement>(kPlacements)},
};

}  // namespace

const Table<Scenario> kScenario = kScenarioRows;
const Table<TopologySpec> kTopology = kTopologyRows;
const Table<routing::RoutingSpec> kRouting = kRoutingRows;
const Table<TrafficSpec> kTraffic = kTrafficRows;
const Table<flow::McfOptions> kMcf = kMcfRows;
const Table<sim::WorkloadConfig> kSim = kSimRows;
const Table<sim::SimConfig> kSimNet = kSimNetRows;
const Table<flow::CapacitySearchOptions> kCapacity = kCapacityRows;
const Table<expansion::GrowthSchedule> kGrowth = kGrowthRows;
const Table<expansion::InitialBuild> kGrowthInitial = kGrowthInitialRows;
const Table<expansion::GrowthStep> kGrowthStep = kGrowthStepRows;

}  // namespace fields

namespace {

// --- sweep axes ---

AxisEntry axis_entry_from_json(const Value& v, const std::string& ctx) {
  ObjectReader r(v, ctx);
  AxisEntry entry;
  r.read("field", entry.field);
  if (entry.field.empty()) schema_error(ctx, "missing required key 'field'");
  {
    bool known = false;
    for (const auto& f : sweep_fields()) known = known || f == entry.field;
    if (!known) schema_error(ctx, "unknown sweep field '" + entry.field + "'");
  }
  r.read("only", entry.only);

  const Value* values = r.get("values");
  const Value* from = r.get("from");
  const Value* to = r.get("to");
  const Value* step = r.get("step");
  if (values != nullptr) {
    if (from || to || step) {
      schema_error(ctx, "'values' and 'from'/'to'/'step' are mutually exclusive");
    }
    with_ctx(ctx + ".values", [&] {
      for (const auto& x : values->as_array()) entry.values.push_back(x.as_number());
    });
    if (entry.values.empty()) schema_error(ctx, "'values' must be non-empty");
  } else {
    if (!from || !to || !step) {
      schema_error(ctx, "need either 'values' or all of 'from'/'to'/'step'");
    }
    const double lo = with_ctx(ctx + ".from", [&] { return from->as_number(); });
    const double hi = with_ctx(ctx + ".to", [&] { return to->as_number(); });
    const double by = with_ctx(ctx + ".step", [&] { return step->as_number(); });
    if (by == 0.0) schema_error(ctx, "bad range: step must be non-zero");
    if ((hi - lo) * by < 0.0) {
      schema_error(ctx, "bad range: step moves away from 'to'");
    }
    // Inclusive expansion; the epsilon (in steps) absorbs float drift on
    // e.g. 0.1 steps. The cap is enforced on the double — casting an
    // out-of-range double to integer is UB.
    constexpr double kDrift = 1e-9;
    const double raw_count = std::floor((hi - lo) / by + kDrift) + 1;
    if (raw_count > 1'000'000) schema_error(ctx, "bad range: more than 1e6 points");
    const long long count = static_cast<long long>(raw_count);
    for (long long i = 0; i < count; ++i) {
      entry.values.push_back(lo + static_cast<double>(i) * by);
    }
    // A last point that drift alone keeps off 'to' is 'to': 0.09 + 13 * 0.07
    // is 1.0000000000000002, outside a [0, 1] field.
    if (std::abs(entry.values.back() - hi) <= kDrift * std::abs(by)) entry.values.back() = hi;
  }
  r.done();
  return entry;
}

SweepAxis axis_from_json(const Value& v, const std::string& ctx) {
  SweepAxis axis;
  if (v.is_object() && v.find("entries") != nullptr) {
    ObjectReader r(v, ctx);
    const Value* entries = r.get("entries");
    r.done();
    const Array& arr = with_ctx(ctx + ".entries",
                                [&]() -> const Array& { return entries->as_array(); });
    if (arr.empty()) schema_error(ctx, "'entries' must be non-empty");
    for (std::size_t i = 0; i < arr.size(); ++i) {
      axis.entries.push_back(
          axis_entry_from_json(arr[i], ctx + ".entries[" + std::to_string(i) + "]"));
    }
  } else {
    axis.entries.push_back(axis_entry_from_json(v, ctx));
  }
  const std::size_t n = axis.entries.front().values.size();
  for (const auto& e : axis.entries) {
    if (e.values.size() != n) {
      schema_error(ctx, "zipped entries disagree on length: '" + e.field + "' has " +
                            std::to_string(e.values.size()) + " values, expected " +
                            std::to_string(n));
    }
  }
  return axis;
}

Value axis_to_json(const SweepAxis& axis) {
  Array entries;
  for (const auto& e : axis.entries) {
    Object o;
    o.emplace_back("field", e.field);
    if (!e.only.empty()) o.emplace_back("only", e.only);
    Array values;
    for (double v : e.values) values.emplace_back(v);
    o.emplace_back("values", Value(std::move(values)));
    entries.emplace_back(Value(std::move(o)));
  }
  Object axis_obj;
  axis_obj.emplace_back("entries", Value(std::move(entries)));
  return Value(std::move(axis_obj));
}

Value axes_to_json(const SweepSpec& spec) {
  if (spec.axes.empty()) return Value();
  Array sweep;
  for (const auto& axis : spec.axes) sweep.push_back(axis_to_json(axis));
  return Value(std::move(sweep));
}

void axes_from_json(const Value& v, SweepSpec& spec, const std::string& ctx) {
  const Array& arr = with_ctx(ctx, [&]() -> const Array& { return v.as_array(); });
  for (std::size_t i = 0; i < arr.size(); ++i) {
    spec.axes.push_back(axis_from_json(arr[i], ctx + "[" + std::to_string(i) + "]"));
  }
}

}  // namespace

// --- claims, and the SweepSpec's own keys ---

namespace fields {
namespace {

constexpr Choice kClaimOpNames[] = {
    {"ratio", static_cast<int>(Claim::Op::kRatio)},
    {"difference", static_cast<int>(Claim::Op::kDifference)},
};
constexpr Choice kTrendNames[] = {
    {"increasing", static_cast<int>(Claim::Trend::kIncreasing)},
    {"decreasing", static_cast<int>(Claim::Trend::kDecreasing)},
};
constexpr Choices kClaimOps{"claim op", kClaimOpNames};
constexpr Choices kTrends{"trend", kTrendNames};

constexpr Field<ClaimSelector> kClaimSelectorRows[] = {
    {"topology", &ClaimSelector::topology},
    {"routing", &ClaimSelector::routing},
    {"metric", &ClaimSelector::metric},
};

constexpr Field<Claim> kClaimRows[] = {
    {"text", &Claim::text},
    {"a", nested<&Claim::a, kClaimSelector>()},
    {"b", optional_nested<&Claim::b, kClaimSelector>()},
    {"op", enum_member<&Claim::op>(kClaimOps)},
    {"min", &Claim::min},
    {"max", &Claim::max},
    {"trend", enum_member<&Claim::trend>(kTrends)},
};

// What a claim needs beyond its rows' own load rules.
void check_claim_fields(const Claim& c, const std::string& ctx) {
  if (c.text.empty()) schema_error(ctx, "missing required key 'text'");
  if (c.a.metric.empty()) schema_error(ctx + ".a", "missing required key 'metric'");
  if (c.b && c.b->metric.empty()) schema_error(ctx + ".b", "missing required key 'metric'");
  if (!c.b && c.op != Claim::Op::kValue) schema_error(ctx + ".op", "needs 'b'");
  if (c.b && c.op == Claim::Op::kValue) {
    schema_error(ctx + ".b", "needs 'op' (ratio or difference)");
  }
  if (!c.min && !c.max && c.trend == Claim::Trend::kNone) {
    schema_error(ctx, "needs 'min', 'max' or 'trend'");
  }
  if (c.min && c.max && *c.min > *c.max) schema_error(ctx + ".min", "greater than 'max'");
}

constexpr Hook<SweepSpec> kClaimArray = array_of<&SweepSpec::claims, kClaim>();

Value claims_to_json(const SweepSpec& spec) {
  return spec.claims.empty() ? Value() : kClaimArray.write(spec);
}

void claims_from_json(const Value& v, SweepSpec& spec, const std::string& ctx) {
  kClaimArray.read(v, spec, ctx);
  for (std::size_t i = 0; i < spec.claims.size(); ++i) {
    check_claim_fields(spec.claims[i], ctx + "[" + std::to_string(i) + "]");
  }
}

constexpr Field<SweepSpec> kSweepRows[] = {
    {"sweep", Hook<SweepSpec>{axes_to_json, axes_from_json}},
    {"claims", Hook<SweepSpec>{claims_to_json, claims_from_json}},
};

}  // namespace

const Table<SweepSpec> kSweep = kSweepRows;
const Table<Claim> kClaim = kClaimRows;
const Table<ClaimSelector> kClaimSelector = kClaimSelectorRows;

}  // namespace fields

namespace {

// Shared scenario-body loader; a non-null `spec` also takes the SweepSpec's
// own keys.
Scenario scenario_from_json_impl(const Value& v, SweepSpec* spec) {
  const std::string ctx = "scenario";
  ObjectReader r(v, ctx);
  Scenario s;
  fields::read_fields(r, fields::kScenario, s);
  // Structural validation of the growth schedule (generator consistency,
  // field ranges) happens in resolve_growth_steps; run it here so a bad
  // schedule fails at load time with the file's context path instead of
  // mid-run. A topology row's growth_policy swaps the planner for that row,
  // so the schedule must be valid under each override too.
  auto validate_growth = [&](const std::string& policy, const std::string& where) {
    try {
      expansion::resolve_growth_steps(row_schedule(s.growth, policy));
    } catch (const std::invalid_argument& e) {
      schema_error(where, e.what());
    }
  };
  validate_growth("", ctx + ".growth");
  for (std::size_t i = 0; i < s.topologies.size(); ++i) {
    if (s.topologies[i].growth_policy.empty()) continue;
    validate_growth(s.topologies[i].growth_policy,
                    ctx + ".topologies[" + std::to_string(i) + "].growth_policy");
  }
  if (spec != nullptr) fields::read_fields(r, fields::kSweep, *spec);
  r.done();
  // A claim selector naming a sample no listed metric emits would match no
  // row at any point, and the claim could only fail after the whole sweep.
  auto check_selector = [&](const ClaimSelector& sel, const std::string& where) {
    const bool emitted = std::ranges::any_of(
        s.metrics, [&](Metric m) { return metric_emits(m, sel.metric, kAnyIndex, s, -1); });
    if (!emitted) schema_error(where, "no listed metric emits sample '" + sel.metric + "'");
  };
  for (std::size_t i = 0; spec != nullptr && i < spec->claims.size(); ++i) {
    const std::string where = ctx + ".claims[" + std::to_string(i) + "]";
    check_selector(spec->claims[i].a, where + ".a.metric");
    if (spec->claims[i].b) check_selector(*spec->claims[i].b, where + ".b.metric");
  }
  return s;
}

}  // namespace

Value scenario_to_json(const Scenario& s) {
  return Value(fields::write_fields(fields::kScenario, s));
}

Scenario scenario_from_json(const Value& v) {
  return scenario_from_json_impl(v, nullptr);
}

Value sweep_to_json(const SweepSpec& spec) {
  Object o = fields::write_fields(fields::kScenario, spec.base);
  for (auto& member : fields::write_fields(fields::kSweep, spec)) o.push_back(std::move(member));
  return Value(std::move(o));
}

SweepSpec sweep_from_json(const Value& v) {
  SweepSpec spec;
  spec.base = scenario_from_json_impl(v, &spec);
  return spec;
}

SweepSpec load_sweep_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read scenario file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return sweep_from_json(Value::parse(buf.str()));
}

Value samples_to_json(const std::vector<Sample>& samples) {
  Array out;
  for (const auto& s : samples) {
    Array row;
    row.emplace_back(s.topology);
    row.emplace_back(s.routing);
    row.emplace_back(s.seed);
    row.emplace_back(s.sample);
    row.emplace_back(s.metric);
    row.emplace_back(s.value);
    out.emplace_back(Value(std::move(row)));
  }
  return Value(std::move(out));
}

std::vector<Sample> samples_from_json(const Value& v) {
  std::vector<Sample> out;
  for (const auto& row_v : v.as_array()) {
    const Array& row = row_v.as_array();
    if (row.size() != 6) throw std::runtime_error("json: sample rows have 6 entries");
    Sample s;
    s.topology = static_cast<int>(row[0].as_int());
    s.routing = static_cast<int>(row[1].as_int());
    s.seed = row[2].as_uint();
    s.sample = static_cast<int>(row[3].as_int());
    s.metric = row[4].as_string();
    s.value = row[5].as_number();
    out.push_back(std::move(s));
  }
  return out;
}

Value report_to_json(const Report& r) {
  Object o;
  o.emplace_back("schema_version", kReportSchemaVersion);
  o.emplace_back("scenario", r.scenario);
  Array topos;
  for (const auto& label : r.topology_labels) topos.emplace_back(label);
  o.emplace_back("topologies", Value(std::move(topos)));
  Array routings;
  for (const auto& label : r.routing_labels) routings.emplace_back(label);
  o.emplace_back("routings", Value(std::move(routings)));
  o.emplace_back("samples", samples_to_json(r.samples));
  Array aggregates;
  for (const auto& row : r.aggregates()) {
    Object a;
    a.emplace_back("topology", row.topology);
    a.emplace_back("routing", row.routing);
    a.emplace_back("metric", row.metric);
    a.emplace_back("mean", row.summary.mean);
    a.emplace_back("stddev", row.summary.stddev);
    a.emplace_back("min", row.summary.min);
    a.emplace_back("max", row.summary.max);
    a.emplace_back("n", row.summary.count);
    aggregates.emplace_back(Value(std::move(a)));
  }
  o.emplace_back("aggregates", Value(std::move(aggregates)));
  return Value(std::move(o));
}

Value sweep_report_to_json(const SweepReport& r) {
  Object o;
  o.emplace_back("name", r.name);
  Array points;
  for (const auto& p : r.points) {
    Object po;
    po.emplace_back("label", p.label);
    Array coords;
    for (const auto& [field, value] : p.coords) {
      Object c;
      c.emplace_back("field", field);
      c.emplace_back("value", value);
      coords.emplace_back(Value(std::move(c)));
    }
    po.emplace_back("coords", Value(std::move(coords)));
    po.emplace_back("report", report_to_json(p.report));
    points.emplace_back(Value(std::move(po)));
  }
  o.emplace_back("points", Value(std::move(points)));
  return Value(std::move(o));
}

namespace {

Value telemetry_cell_to_json(const CellTelemetry& c) {
  Object o;
  o.emplace_back("topology", c.topology);
  o.emplace_back("routing", c.routing);
  o.emplace_back("seed", c.seed);
  o.emplace_back("sample", c.sample);
  o.emplace_back("epoch_ns", c.data.epoch_ns);
  o.emplace_back("t_end_ns", c.data.t_end_ns);
  Array flows;
  for (const auto& f : c.data.flows) {
    Array row;
    row.emplace_back(f.src_server);
    row.emplace_back(f.dst_server);
    row.emplace_back(f.start_ns);
    row.emplace_back(f.finish_ns);
    row.emplace_back(f.completed ? 1 : 0);
    row.emplace_back(f.bytes_acked);
    row.emplace_back(f.packets_sent);
    row.emplace_back(f.retransmits);
    row.emplace_back(f.timeouts);
    row.emplace_back(f.path_drops);
    row.emplace_back(f.hop_count);
    flows.emplace_back(Value(std::move(row)));
  }
  o.emplace_back("flows", Value(std::move(flows)));
  Array links;
  for (const auto& l : c.data.links) {
    Object lo;
    lo.emplace_back("rate_bps", l.rate_bps);
    Array epochs;
    for (const auto& e : l.epochs) {
      Array row;
      row.emplace_back(e.tx_packets);
      row.emplace_back(e.tx_bytes);
      row.emplace_back(e.drops);
      row.emplace_back(e.utilization);
      for (std::int64_t h : e.queue_hist) row.emplace_back(h);
      epochs.emplace_back(Value(std::move(row)));
    }
    lo.emplace_back("epochs", Value(std::move(epochs)));
    links.emplace_back(Value(std::move(lo)));
  }
  o.emplace_back("links", Value(std::move(links)));
  return Value(std::move(o));
}

}  // namespace

Value telemetry_dump_to_json(const TelemetryDump& d) {
  Object o;
  o.emplace_back("schema_version", kTelemetrySchemaVersion);
  o.emplace_back("name", d.name);
  Array points;
  for (const auto& p : d.points) {
    Object po;
    po.emplace_back("label", p.label);
    Array cells;
    for (const auto& c : p.cells.cells) cells.emplace_back(telemetry_cell_to_json(c));
    po.emplace_back("cells", Value(std::move(cells)));
    points.emplace_back(Value(std::move(po)));
  }
  o.emplace_back("points", Value(std::move(points)));
  return Value(std::move(o));
}

}  // namespace jf::eval
