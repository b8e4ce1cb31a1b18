// Shared main() for the figure benches ported onto the experiment farm.
//
// A ported bench is a one-liner: point sweep_bench_main at the figure's
// scenario file (CMake bakes the source-tree scenarios/ directory in as
// JF_SCENARIO_DIR) and it loads the SweepSpec, runs it on the engine with a
// progress line per completed sweep point on stderr, and prints the banner
// plus the aggregate table and CSV on stdout — the same numbers `jf_eval
// run <file>` produces, because both execute the identical spec through the
// identical kernels. An optional epilogue prints what the figure shows beyond
// a one-line claim (a table, a derived quantity); one-line claims live in
// the scenario file's "claims" and `jf_eval run` checks them.
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

// Prints the figure's derived output (e.g. fig07's cost to match) after the
// table. May assume the report came from the bench's own scenario; it runs
// only on success. mean_for (eval/sweep.h) reads a row's mean.
using BenchEpilogue = std::function<void(const SweepReport&, std::ostream&)>;

// Returns the process exit code (0 on success; 1 with the error on stderr).
int sweep_bench_main(int argc, char** argv, std::string_view banner,
                     std::string_view default_scenario_path,
                     const BenchEpilogue& epilogue = {});

}  // namespace jf::eval
