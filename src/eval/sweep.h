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
#pragma once

#include <functional>
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

struct SweepSpec {
  Scenario base;
  std::vector<SweepAxis> axes;  // cartesian product, first axis slowest

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

}  // namespace jf::eval
