// Scenario execution engine.
//
// Engine::run takes a declarative Scenario (topology specs x routing specs x
// traffic x metrics x seeds) and produces a Report. Work is split into
// (topology, routing, seed) cells executed on a thread pool; every cell
// derives its RNG streams purely from the scenario's seed list and cell
// indices, so reports are byte-identical at any thread count, and traffic
// matrices are shared across routing schemes of the same (topology, seed)
// for paired comparisons.
//
// Threading model: EngineOptions::threads is a *global budget* shared by two
// levels. Cells from every scenario in a batch feed one dynamic queue, and
// any worker a cell does not occupy can be borrowed by the cell itself for
// within-cell parallelism (the MCF solver's Dijkstra sweeps), so both a
// sweep of many small points and one giant solve saturate the same budget.
// Neither level affects results: cell RNG streams are index-derived and the
// solver's round schedule is worker-count independent.
//
// The static measurement kernels below are what scenario cells evaluate;
// they are public so benches and tests can score a topology directly.
#pragma once

#include <functional>
#include <map>
#include <span>

#include "eval/report.h"
#include "eval/scenario.h"
#include "graph/algorithms.h"
#include "sim/telemetry.h"
#include "topo/topology.h"

namespace jf::store {
class ResultStore;
}

namespace jf::eval {

// Deterministic accounting for one run/run_batch call: how many result
// slots there were and how each got filled. Counts depend only on the
// scenarios and the persistent store's contents — never on thread
// scheduling — so gates like "a warm re-run solves 0 cells" are exact.
struct BatchStats {
  int cells = 0;       // result slots across the batch (leaders + duplicates)
  int solved = 0;      // cells actually executed by the measurement kernels
  int memo_hits = 0;   // duplicate slots spliced from an in-batch leader cell
  int store_hits = 0;  // leader cells loaded from the persistent result store
};

// Full telemetry dataset of one simulated cell run: the packet sim for
// (topology, routing, seed) at parallel-connection/subflow count `k`.
// Engine::run emits one per simulated run, in canonical cell order (the
// Report's sample order), when EngineOptions::telemetry is set.
struct CellTelemetry {
  int topology = 0;
  int routing = 0;
  std::uint64_t seed = 0;
  int sample = 0;  // the cell's k index (parallel connection / subflow count)
  sim::TelemetryDataset data;
};

// Every simulated cell of one scenario, ordered canonically — byte-identical
// at any thread count or shard count, exactly like the Report itself.
struct ScenarioTelemetry {
  std::vector<CellTelemetry> cells;
};

struct EngineOptions {
  // Global worker budget: concurrent cells plus the extra threads cells
  // borrow for within-cell solves never exceed this. <= 0 selects hardware
  // concurrency.
  int threads = 0;
  // For deterministic topology families (fattree), build the topology once
  // and warm one PathProvider per routing scheme with the union of switch
  // pairs the scenario's traffic will query (PathProvider::warm, on the batch's borrowed workers), then
  // share both read-only across seed cells — pairs repeated across
  // seeds/samples run Yen/ECMP enumeration once instead of once per seed.
  // Results are identical either way; this is purely a time/memory trade.
  bool share_path_cache = true;
  // Across a batch (typically one sweep), cells whose full configuration —
  // the spec slice the cell reads plus its topology/routing indices and
  // seed, which the cell's RNG streams are derived from — is byte-identical
  // run once; the other occurrences splice the first cell's samples into
  // their result slots (e.g. fig02a's fixed fat-tree reference row, which
  // the server-ramp axis never touches, evaluates once instead of once per
  // sweep point). Reports are byte-identical either way.
  bool memoize_cells = true;
  // Persistent cell cache (not owned; may be null). Leader cells first look
  // up their content digest — the SHA-256 of the canonical scenario-slice
  // bytes, cell indices, seed, and kReportSchemaVersion — and splice the
  // stored samples exactly like the in-process memoization path on a hit;
  // on a miss the solved samples are persisted on completion. Entries that
  // fail to parse or verify are dropped and recomputed, never trusted.
  // Reports are byte-identical with the cache off, cold, or warm, at any
  // thread count.
  store::ResultStore* store = nullptr;
  // When non-null, overwritten with this batch's accounting on return.
  BatchStats* stats = nullptr;
  // Telemetry collector (not owned; may be null = off). When set, run /
  // run_batch resize it to one ScenarioTelemetry per scenario and fill each
  // with the full per-flow / per-link dataset of every simulated cell, in
  // canonical cell order. Recording is purely observational — the Report is
  // byte-identical with the collector on or off — but it is incompatible
  // with the persistent store (a store hit would skip the simulation that
  // produces the dataset), so run_batch refuses store + telemetry together.
  std::vector<ScenarioTelemetry>* telemetry = nullptr;
};

class Engine {
 public:
  explicit Engine(EngineOptions opts = {}) : opts_(opts) {}

  // Executes the scenario; cells run in parallel, results are deterministic.
  Report run(const Scenario& s) const;

  // Executes several scenarios as one interleaved batch: cells from all
  // scenarios share one work queue and one thread budget, so trailing cells
  // of scenario i overlap with leading cells of scenario i+1 instead of
  // leaving workers idle at every scenario boundary. Each Report is
  // assembled in canonical cell order — byte-identical to running the
  // scenarios one at a time, at any thread count.
  //
  // `on_done`, when provided, fires exactly once per scenario, in index
  // order, as soon as scenario i and every earlier scenario have finished
  // (completed later scenarios are buffered). Callbacks run serialized but
  // possibly on worker threads, and may steal the Report (it is the same
  // object returned in the result vector, passed by mutable reference).
  std::vector<Report> run_batch(
      std::span<const Scenario> scenarios,
      const std::function<void(std::size_t, Report&)>& on_done = {}) const;

  // --- measurement kernels ---

  static graph::PathLengthStats path_stats(const topo::Topology& t);

  // Analytic RRG bound when the network degree is uniform, else a KL cut
  // estimate; normalized to server capacity per partition.
  static double bisection_bandwidth(const topo::Topology& t, Rng& rng);

  // Weighted server-pair path-length CDF: P[server-to-server hops <= L],
  // where hops = switch distance + 2 host links (Fig. 1(c)).
  static std::map<int, double> server_path_cdf(const topo::Topology& t);

  // The growth-schedule kernel behind the kExpansion* metrics: executes
  // Scenario::growth (with topology row `topo_idx`'s growth_policy override)
  // on the cell's seed-and-index-derived RNG stream. Exposed so tests can
  // check the engine's reported per-step values against a direct plan.
  static expansion::GrowthPlan growth_plan(const Scenario& s, int topo_idx,
                                           std::uint64_t seed, bool score_bisection,
                                           parallel::WorkBudget* budget = nullptr);

 private:
  EngineOptions opts_;
};

}  // namespace jf::eval
