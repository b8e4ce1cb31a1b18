#include "eval/sweep.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/json.h"
#include "eval/field_table.h"

namespace jf::eval {

namespace {

using fields::Field;
using fields::Rule;

constexpr std::string_view kTopologyPrefix = "topology.";

bool topology_matches(const TopologySpec& t, const std::string& only) {
  return only.empty() || t.family == only || t.label == only;
}

// Every table with swept rows, in sweep_fields() order: the dotted prefix of
// its rows and the instances of a scenario one swept value fans out to.
template <typename Fn>
void for_each_swept_table(Fn&& fn) {
  fn(kTopologyPrefix, fields::kTopology, [](Scenario& s, const AxisEntry& e, const auto& set) {
    int matched = 0;
    for (auto& t : s.topologies) {
      if (!topology_matches(t, e.only)) continue;
      set(t);
      ++matched;
    }
    check(matched > 0,
          "sweep field '" + e.field + "': filter '" + e.only + "' matches no topology");
  });
  fn("routing.", fields::kRouting, [](Scenario& s, const AxisEntry& e, const auto& set) {
    check(!s.routings.empty(), "sweep field '" + e.field + "': scenario has no routings");
    for (auto& r : s.routings) set(r);
  });
  fn("traffic.", fields::kTraffic,
     [](Scenario& s, const AxisEntry&, const auto& set) { set(s.traffic); });
  fn("", fields::kScenario, [](Scenario& s, const AxisEntry&, const auto& set) { set(s); });
  fn("sim.", fields::kSim, [](Scenario& s, const AxisEntry&, const auto& set) { set(s.sim); });
  fn("growth.", fields::kGrowth,
     [](Scenario& s, const AxisEntry&, const auto& set) { set(s.growth); });
  fn("growth.", fields::kGrowthStep, [](Scenario& s, const AxisEntry& e, const auto& set) {
    check(!s.growth.steps.empty(),
          "sweep field '" + e.field + "': schedule has no explicit steps");
    for (auto& step : s.growth.steps) set(step);
  });
}

// Checks a swept value against its row's rule. Integer members also need an
// integral value. Rejecting here keeps the sweep field path in the message,
// where a zero count would otherwise fail much later inside a topology
// factory with an opaque error, or build a silently degenerate topology.
template <typename S>
void check_swept_value(const Field<S>& f, const std::string& field, double v) {
  if (std::holds_alternative<int S::*>(f.member)) {
    check(v == std::floor(v) && std::abs(v) < 2e9,
          "sweep field '" + field + "' needs an integer value");
  }
  const char* need = nullptr;
  switch (f.rule) {
    case Rule::kCount: need = v > 0 ? nullptr : "a positive value"; break;
    case Rule::kLimit: need = v >= -1 ? nullptr : "a value >= -1"; break;
    case Rule::kNonNeg: need = v >= 0 ? nullptr : "a value >= 0"; break;
    case Rule::kUnit: need = v >= 0 && v <= 1 ? nullptr : "a value in [0, 1]"; break;
    case Rule::kFixed:
    case Rule::kAny: break;
  }
  if (need != nullptr) {
    check(false, "sweep field '" + field + "' needs " + need + ", got " +
                     json::number_to_string(v));
  }
}

template <typename S>
void set_swept_value(const Field<S>& f, S& obj, const std::string& field, double v) {
  if (const auto* m = std::get_if<int S::*>(&f.member)) {
    obj.**m = static_cast<int>(v);
  } else {
    obj.*std::get<double S::*>(f.member) = v;
  }
  if (f.then != nullptr) f.then(obj, field);
}

}  // namespace

const std::vector<std::string>& sweep_fields() {
  static const std::vector<std::string> fields = [] {
    std::vector<std::string> out;
    for_each_swept_table([&](std::string_view prefix, const auto& table, const auto&) {
      for (bool first : {true, false}) {
        for (const auto& f : table) {
          if (f.rule != Rule::kFixed && f.listed_first == first) {
            out.push_back(std::string(prefix).append(f.key));
          }
        }
      }
    });
    return out;
  }();
  return fields;
}

void apply_sweep_value(Scenario& s, const AxisEntry& entry, double value) {
  bool found = false;
  for_each_swept_table([&](std::string_view prefix, const auto& table, const auto& fan_out) {
    if (found || !entry.field.starts_with(prefix)) return;
    const std::string_view key = std::string_view(entry.field).substr(prefix.size());
    for (const auto& f : table) {
      if (f.rule == Rule::kFixed || f.key != key) continue;
      found = true;
      check(entry.only.empty() || prefix == kTopologyPrefix,
            "sweep field '" + entry.field + "': 'only' applies to topology.* fields");
      check_swept_value(f, entry.field, value);
      fan_out(s, entry, [&](auto& obj) { set_swept_value(f, obj, entry.field, value); });
      return;
    }
  });
  check(found, "unknown sweep field '" + entry.field + "'");
}

bool SweepSpec::sweeps(std::string_view field) const {
  for (const auto& axis : axes) {
    for (const auto& entry : axis.entries) {
      if (entry.field == field) return true;
    }
  }
  return false;
}

namespace {

// "topology.servers" -> "servers"; non-topology fields keep the full path.
std::string short_field(const std::string& field) {
  if (field.starts_with(kTopologyPrefix)) return field.substr(kTopologyPrefix.size());
  return field;
}

void validate_axes(const std::vector<SweepAxis>& axes) {
  for (const auto& axis : axes) {
    check(!axis.entries.empty(), "sweep axis with no entries");
    const std::size_t n = axis.entries.front().values.size();
    check(n > 0, "sweep axis entry '" + axis.entries.front().field + "' has no values");
    for (const auto& entry : axis.entries) {
      check(!entry.field.empty(), "sweep axis entry with empty field");
      check(entry.values.size() == n,
            "zipped sweep entries disagree on length: '" + entry.field + "' has " +
                std::to_string(entry.values.size()) + " values, expected " +
                std::to_string(n));
    }
  }
}

}  // namespace

std::vector<SweepPoint> expand_sweep(const SweepSpec& spec) {
  validate_axes(spec.axes);

  std::size_t total = 1;
  for (const auto& axis : spec.axes) total *= axis.entries.front().values.size();

  std::vector<SweepPoint> points;
  points.reserve(total);
  // Odometer over axis value indices, first axis slowest (row-major).
  std::vector<std::size_t> idx(spec.axes.size(), 0);
  for (std::size_t p = 0; p < total; ++p) {
    SweepPoint point;
    point.scenario = spec.base;
    std::string coord_label;
    std::vector<std::string> suffixes(spec.base.topologies.size());
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const SweepAxis& axis = spec.axes[a];
      // Per-axis: each topology gets at most one label suffix (from the
      // first entry of the axis that applies to it), so zipped entries don't
      // stack redundant coordinates onto one label.
      std::vector<bool> suffixed(suffixes.size(), false);
      for (const auto& entry : axis.entries) {
        const double v = entry.values[idx[a]];
        point.coords.emplace_back(entry.field, v);
        apply_sweep_value(point.scenario, entry, v);
        if (!entry.field.starts_with(kTopologyPrefix)) continue;
        for (std::size_t t = 0; t < suffixes.size(); ++t) {
          if (suffixed[t] || !topology_matches(spec.base.topologies[t], entry.only)) continue;
          // Appended piecewise: gcc 12's -Wrestrict misfires on "/" + string
          // here (GCC PR 105329).
          suffixes[t].push_back('/');
          suffixes[t] += short_field(entry.field);
          suffixes[t].push_back('=');
          suffixes[t] += json::number_to_string(v);
          suffixed[t] = true;
        }
      }
      const auto& first = axis.entries.front();
      if (!coord_label.empty()) coord_label += ' ';
      coord_label +=
          short_field(first.field) + "=" + json::number_to_string(first.values[idx[a]]);
    }
    // Labels change only after every entry is applied, so `only` filters
    // always match the base specs' labels.
    for (std::size_t t = 0; t < suffixes.size(); ++t) {
      auto& ts = point.scenario.topologies[t];
      if (!suffixes[t].empty()) ts.label = ts.display() + suffixes[t];
    }
    point.label = point.scenario.name;
    if (!coord_label.empty()) point.label += " [" + coord_label + "]";
    // Advance the odometer, last axis fastest.
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      if (++idx[a] < spec.axes[a].entries.front().values.size()) break;
      idx[a] = 0;
    }
    points.push_back(std::move(point));
  }
  return points;
}

Table SweepReport::to_table() const {
  Table table({"point", "topology", "routing", "metric", "mean", "stddev", "min", "max", "n"});
  for (const auto& point : points) {
    std::string coords;
    for (const auto& [field, v] : point.coords) {
      if (!coords.empty()) coords += ' ';
      coords += short_field(field);
      coords += '=';
      coords += json::number_to_string(v);
    }
    // push_back, not = "-": gcc 12's -Wrestrict misfires on literal assign
    // after the += loop above (GCC PR 105329).
    if (coords.empty()) coords.push_back('-');
    for (const auto& row : point.report.aggregates()) {
      table.add_row({coords, row.topology, row.routing, row.metric,
                     Table::fmt(row.summary.mean), Table::fmt(row.summary.stddev),
                     Table::fmt(row.summary.min), Table::fmt(row.summary.max),
                     Table::fmt(row.summary.count)});
    }
  }
  return table;
}

SweepReport run_sweep(const SweepSpec& spec, const EngineOptions& opts,
                      const SweepProgress& progress) {
  auto points = expand_sweep(spec);
  Engine engine(opts);
  SweepReport out;
  out.name = spec.base.name;
  out.points.resize(points.size());
  std::vector<Scenario> scenarios;
  scenarios.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    out.points[i].label = std::move(points[i].label);
    out.points[i].coords = std::move(points[i].coords);
    scenarios.push_back(std::move(points[i].scenario));
  }
  // One interleaved batch: cells from every point share the engine's worker
  // budget, so a sweep of many small points fills wide machines instead of
  // draining at each point boundary. The engine buffers out-of-order
  // completions and emits strictly in point order, so progress lines — and
  // the report itself — stay canonical at any thread count. The per-point
  // seconds are the wall time since the previous emission (run start for
  // the first point); they sum to the sweep's wall time but, unlike the
  // old one-point-at-a-time runner, include overlapped work from
  // neighboring points.
  // detlint: ok(per-point seconds feed only the stderr progress callback)
  auto last_emit = std::chrono::steady_clock::now();
  engine.run_batch(scenarios, [&](std::size_t i, Report& report) {
    out.points[i].report = std::move(report);
    const auto now = std::chrono::steady_clock::now();  // detlint: ok(progress only)
    const double seconds = std::chrono::duration<double>(now - last_emit).count();
    last_emit = now;
    if (progress) {
      progress(static_cast<int>(i) + 1, static_cast<int>(points.size()), out.points[i],
               seconds);
    }
  });
  return out;
}

// --- paper claims ---

namespace {

// The rows of `report` a selector matches: how many, and the first one's
// mean (NaN when none).
struct RowMatch {
  double mean = std::numeric_limits<double>::quiet_NaN();
  int rows = 0;
};

RowMatch match_rows(const Report& report, const ClaimSelector& sel) {
  RowMatch m;
  for (const auto& row : report.aggregates()) {
    if (row.metric != sel.metric || !row.topology.starts_with(sel.topology) ||
        !row.routing.starts_with(sel.routing)) {
      continue;
    }
    if (m.rows++ == 0) m.mean = row.summary.mean;
  }
  return m;
}

}  // namespace

ClaimResult check_claim(const Claim& claim, const SweepReport& report) {
  ClaimResult out;
  out.values.reserve(report.points.size());
  std::optional<double> prev;
  bool holds = true;
  for (const auto& point : report.points) {
    std::optional<double>& value = out.values.emplace_back();
    const RowMatch a = match_rows(point.report, claim.a);
    const RowMatch b = claim.b ? match_rows(point.report, *claim.b) : RowMatch{};
    if (a.rows > 1 || b.rows > 1) out.ambiguous = true;
    if (a.rows != 1 || (claim.b && b.rows != 1)) continue;
    switch (claim.op) {
      case Claim::Op::kValue: value = a.mean; break;
      case Claim::Op::kRatio:
        if (b.mean <= 0.0) continue;
        value = a.mean / b.mean;
        break;
      case Claim::Op::kDifference: value = a.mean - b.mean; break;
    }
    const double v = *value;
    holds = holds && !std::isnan(v) && !(claim.min && v < *claim.min) &&
            !(claim.max && v > *claim.max);
    if (prev) {
      if (claim.trend == Claim::Trend::kIncreasing) holds = holds && v >= *prev;
      if (claim.trend == Claim::Trend::kDecreasing) holds = holds && v <= *prev;
    }
    prev = v;
  }
  out.pass = holds && prev.has_value() && !out.ambiguous;
  return out;
}

std::string claim_line(std::string_view name, const Claim& claim, const ClaimResult& result) {
  std::ostringstream os;
  os.precision(4);
  os << "[claim] " << (result.pass ? "pass" : "FAIL") << " " << name << ": " << claim.text
     << ":";
  for (const auto& v : result.values) {
    os << " ";
    if (v) {
      os << *v;
    } else {
      os << "-";
    }
  }
  if (result.ambiguous) os << " (a selector matches more than one row)";
  return os.str();
}

}  // namespace jf::eval
