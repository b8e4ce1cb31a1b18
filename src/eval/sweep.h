// Parameter sweeps over a base Scenario — the experiment-farm layer.
//
// Every figure in the paper is a sweep: servers ramp along Fig. 2's x-axis,
// k-shortest-path k steps through {2, 4, 8}, congestion levels scale the
// traffic demand. A SweepSpec captures that as data: a base Scenario plus
// axes, where each axis is a list of (field, values) entries advanced in
// lockstep ("zipped" — e.g. fattree_k and the matching equal-equipment
// jellyfish switch count move together) and distinct axes form a cartesian
// product. expand_sweep turns the spec into a deterministic sequence of
// per-point Scenarios with auto-suffixed topology labels, and run_sweep
// executes them as one interleaved Engine batch — cells from every point
// share the global worker budget — while buffering completions so progress
// callbacks stream strictly in point order. Reports are byte-identical at
// any thread count.
//
// A SweepSpec may also carry the paper's claims about its figure (Claim):
// bounds and trends on row means, checked against the finished SweepReport
// by check_claim. Claims never enter a point's Scenario, so they cannot
// change a report, a cell key or a result-store digest.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/engine.h"
#include "eval/report.h"
#include "eval/scenario.h"

namespace jf::eval {

// One swept field. `field` is a dotted path (see sweep_fields()); `only`
// optionally restricts topology.* fields to topologies whose family or
// label matches (so e.g. a server ramp can leave a fixed fat-tree
// reference row untouched). `values` holds the expanded point values —
// range axes are expanded to explicit values at load time.
struct AxisEntry {
  std::string field;
  std::string only;
  std::vector<double> values;
};

// Entries advance in lockstep: point i of the axis applies entry.values[i]
// of every entry. All entries must therefore agree on values.size().
struct SweepAxis {
  std::vector<AxisEntry> entries;
};

// Picks one aggregate row at a sweep point: metric `metric`, a topology
// label starting with `topology` (sweep suffixes make exact labels
// point-dependent) and a routing label starting with `routing` (empty
// matches any row; routing-free rows are labelled "-").
struct ClaimSelector {
  std::string topology;
  std::string routing;
  std::string metric;
};

// One claim the paper makes about a figure. At each sweep point its value
// is a's mean, a / b (kRatio) or a - b (kDifference). It holds when at
// least one point was evaluated, every value lies in [min, max], the values
// follow `trend` (non-strictly) in sweep order, and no selector matched
// more than one row at any point.
struct Claim {
  enum class Op : std::uint8_t { kValue, kRatio, kDifference };
  enum class Trend : std::uint8_t { kNone, kIncreasing, kDecreasing };

  std::string text;
  ClaimSelector a;
  std::optional<ClaimSelector> b;  // set exactly when op is not kValue
  Op op = Op::kValue;
  std::optional<double> min;
  std::optional<double> max;
  Trend trend = Trend::kNone;
};

struct SweepSpec {
  Scenario base;
  std::vector<SweepAxis> axes;  // cartesian product, first axis slowest
  std::vector<Claim> claims;    // checked after the run, never part of a point

  // True when some axis entry sweeps `field`.
  bool sweeps(std::string_view field) const;
};

// One expanded sweep point: the concrete Scenario plus the coordinates that
// produced it. Topology labels inside `scenario` carry "/field=value"
// suffixes for every axis that touched them, so Report rows from different
// points stay distinguishable.
struct SweepPoint {
  Scenario scenario;
  std::string label;  // "<name> [f1=v1 f2=v2]" using each axis's first entry
  std::vector<std::pair<std::string, double>> coords;  // every applied entry
};

// Dotted field paths sweepable via AxisEntry::field: "<prefix>.<key>" for
// every row of the scenario field table (eval/field_table.h) that carries a
// sweep rule, so each swept field is also a written and loaded JSON key.
// topology.* fields set the member on every (filter-passing) TopologySpec;
// routing.width sets every RoutingSpec's width; growth.budget sets every
// explicit step's budget; traffic.*/sim.*/growth.* and samples_per_seed
// adjust the scenario scalars.
const std::vector<std::string>& sweep_fields();

// Applies one swept value to the scenario, after checking it against the
// row's sweep rule (a positive count, an integer >= -1, a number >= 0, or a
// number in [0, 1]). Throws std::invalid_argument for unknown fields,
// values outside the rule, non-integral values on integer fields, or a
// topology filter that matches nothing.
void apply_sweep_value(Scenario& s, const AxisEntry& entry, double value);

// Expands the cartesian product of the axes over the base scenario, in a
// canonical order that depends only on the spec. A spec with no axes yields
// exactly the base scenario as one point.
std::vector<SweepPoint> expand_sweep(const SweepSpec& spec);

struct SweepPointResult {
  std::string label;
  std::vector<std::pair<std::string, double>> coords;
  Report report;
};

struct SweepReport {
  std::string name;
  std::vector<SweepPointResult> points;

  // Aggregate table over all points:
  // point | topology | routing | metric | mean | stddev | min | max | n.
  Table to_table() const;
};

// Called after each completed point with (1-based done count, total points,
// the finished point, wall seconds since the previous callback). Callbacks
// fire strictly in point order — out-of-order completions are buffered —
// and may run on worker threads (serialized). Wall time never enters the
// report, so reports stay deterministic.
using SweepProgress =
    std::function<void(int done, int total, const SweepPointResult& point, double seconds)>;

// Expands and executes the sweep as one interleaved batch: cells from all
// points feed the engine's shared worker budget (EngineOptions::threads),
// and idle workers are lent to within-cell solves. Reports and progress
// order are byte-identical at any thread count.
SweepReport run_sweep(const SweepSpec& spec, const EngineOptions& opts = {},
                      const SweepProgress& progress = {});

// --- paper claims ---

struct ClaimResult {
  // The claim's value at each point, or nullopt where the point is skipped:
  // a selector matched no row, or a ratio's b was <= 0 (an infeasible
  // design point such as fig02b's fat-tree between k^3/4 steps).
  std::vector<std::optional<double>> values;
  bool ambiguous = false;  // a selector matched more than one row at a point
  bool pass = false;
};

ClaimResult check_claim(const Claim& claim, const SweepReport& report);

// "[claim] pass|FAIL <name>: <text>: <value per point>", skipped points as
// "-"; the line jf_eval run prints per claim.
std::string claim_line(std::string_view name, const Claim& claim, const ClaimResult& result);

}  // namespace jf::eval
