// Shared main() for the figure benches ported onto the experiment farm.
//
// A ported bench is a one-liner: point sweep_bench_main at the figure's
// scenario file (CMake bakes the source-tree scenarios/ directory in as
// JF_SCENARIO_DIR) and it loads the SweepSpec, runs it on the engine with a
// progress line per completed sweep point on stderr, and prints the banner
// plus the aggregate table and CSV on stdout — the same numbers `jf_eval
// run <file>` produces, because both execute the identical spec through the
// identical kernels. An optional epilogue derives the figure's headline
// "paper shape" comparison from the finished report.
//
// Usage: bench_figXX [scenario.json] [--threads N]
//   scenario.json  overrides the default scenario file (zero-recompilation
//                  what-if runs)
//   --threads N    worker budget, an integer >= 0 (0 = every core)
// Malformed arguments exit with status 2 before any sweep runs.
#pragma once

#include <functional>
#include <iosfwd>
#include <string_view>

#include "eval/sweep.h"

namespace jf::eval {

// Prints the figure's derived shape check (e.g. fig02c's jellyfish-vs-
// fat-tree advantage percentage) after the table. May assume the report
// came from the bench's own scenario; it runs only on success.
using BenchEpilogue = std::function<void(const SweepReport&, std::ostream&)>;

// Returns the process exit code (0 on success; 1 with the error on stderr).
int sweep_bench_main(int argc, char** argv, std::string_view banner,
                     std::string_view default_scenario_path,
                     const BenchEpilogue& epilogue = {});

// Mean of one metric's aggregate across a point's report, restricted to
// topology labels starting with `label_prefix` (sweep suffixes make exact
// labels point-dependent) and routing labels starting with `routing_prefix`
// (routing-free rows are labelled "-"; empty matches any row). Returns NaN
// when no row matches — epilogues should degrade gracefully on custom
// scenario overrides.
double mean_for(const SweepPointResult& point, std::string_view label_prefix,
                std::string_view metric, std::string_view routing_prefix = {});

}  // namespace jf::eval
