// Growth schedules: declarative incremental-expansion plans (paper §4.2, §6).
//
// A GrowthSchedule describes an expansion arc as data — an initial build plus
// ordered steps, each adding switches and/or servers under an optional money
// budget and rewiring cap — and plan_growth executes it under one of two
// policies:
//
//   * "jellyfish" — the paper's random-graph expansion: new switches are
//     spliced in by random link swaps (each swap detaches one existing cable
//     and attaches two new ones). A step's rewire_limit caps the cables
//     detached that step: obligatory switches are still added, but with their
//     splice degree reduced to fit the remaining rewiring budget, and
//     optional budget-funded switches stop when the cap (or the money) runs
//     out.
//   * "clos" — the LEGUP-style structured baseline (see clos.h): every step
//     keeps a legal folded Clos, and rewire_limit bounds the cables the
//     upgrade may move.
//
// This is the single growth implementation behind the `jellyfish-incr`
// topology family (a pure fixed-step schedule) and the engine's expansion
// metrics (eval::Metric::kExpansionCost / kRewiredCables /
// kExpansionBisection), which run the Fig. 7 arcs.
//
// RNG discipline: plan_growth threads ONE stream through the initial build
// and every splice, in schedule order — the historical jellyfish-incr
// construction, so incrementally-grown topologies are byte-identical to what
// the pre-schedule factory produced. Per-step bisection scoring uses
// fork(100 + step) side streams (forks derive from the seed, not the stream
// position), which is what lets the expensive KL estimates run in parallel
// on borrowed workers without touching the growth stream.
#pragma once

#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "expansion/clos.h"
#include "expansion/cost_model.h"
#include "topo/topology.h"

namespace jf::expansion {

// Initial build parameters shared by every growth policy.
struct InitialBuild {
  int switches = 34;
  int ports_per_switch = 24;
  int servers = 480;
};

// One expansion step. All three growth mechanisms may combine in one step;
// they execute in the order: server obligation, fixed adds, budget buys.
struct GrowthStep {
  int add_switches = 0;   // switches added unconditionally (incr-style growth)
  int min_servers = 0;    // servers that must be hosted by the end of the step
  double budget = 0.0;    // spend for optional network-only switches
  int rewire_limit = -1;  // max existing cables detached this step (-1 = none)
};

struct GrowthSchedule {
  InitialBuild initial;

  // > 0 selects the uniform-degree regime: the initial build is
  // RRG(switches, ports, network_degree) and every added switch carries
  // network_degree fabric ports plus ports - network_degree servers (the
  // jellyfish-incr family). 0 selects the heterogeneous regime: the initial
  // build spreads initial.servers evenly, added rack switches fill all
  // spare ports into the fabric, and budget-funded switches are
  // network-only (the Fig. 7 arc).
  int network_degree = 0;

  std::string policy = "jellyfish";  // "jellyfish" | "clos"

  // Explicit steps, or — when empty and target_switches > initial.switches —
  // a generated ramp: steps of add_switches = step_switches (last step
  // truncated) until target_switches, each with this rewire_limit. Setting
  // both explicit steps and target_switches is an error.
  std::vector<GrowthStep> steps;
  int target_switches = 0;
  int step_switches = 1;
  int rewire_limit = -1;  // default cap applied to generated steps
};

// The explicit step sequence (generator shorthand expanded). Throws
// std::invalid_argument on inconsistent schedules (explicit steps combined
// with target_switches, target below the initial size, bad step size, a
// uniform-regime server count that contradicts network_degree, or a clos
// policy with network_degree/add_switches growth) — the full structural
// validation, run by the JSON loader and the engine before any evaluation.
std::vector<GrowthStep> resolve_growth_steps(const GrowthSchedule& sched);

// Per-step outcome. Entry 0 is the initial build (spent = full build cost,
// nothing rewired); entry i >= 1 is steps[i-1].
struct GrowthStepResult {
  int step = 0;
  double spent = 0.0;
  double cumulative_cost = 0.0;
  int switches = 0;
  int servers = 0;
  int cables_rewired = 0;  // existing cables detached (moved) this step
  int cables_touched = 0;  // attach + detach operations this step
  double normalized_bisection = 0.0;  // 0 unless scored (see options)
};

struct GrowthPlan {
  topo::Topology topology;  // final network (both policies)
  ClosConfig clos;          // final configuration (clos policy only)
  std::vector<GrowthStepResult> steps;  // size = resolved steps + 1
};

struct GrowthPlanOptions {
  // Score normalized bisection bandwidth after every step. For the
  // jellyfish policy this snapshots the topology per step and runs the KL
  // estimator over all snapshots in parallel on workers borrowed from
  // `budget` (results are placed by step index, so they are bit-identical
  // at any worker count); the clos policy always fills the analytic value.
  bool score_bisection = true;
  int kl_restarts = 3;
  parallel::WorkBudget* budget = nullptr;
};

// Executes the schedule. Deterministic in (schedule, costs, rng seed);
// independent of the worker budget.
GrowthPlan plan_growth(const GrowthSchedule& sched, const CostModel& costs, Rng& rng,
                       const GrowthPlanOptions& opts = {});

}  // namespace jf::expansion
