// Structured results of an Engine::run: raw per-seed samples plus aggregate
// summaries, renderable as a common::table for jf_eval and the examples.
//
// Samples are emitted in a canonical order that depends only on the Scenario
// (never on thread scheduling), so two runs of the same scenario at any
// thread counts produce byte-identical reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table.h"

namespace jf::eval {

// Version stamp for everything downstream of the engine: the Report JSON
// layout AND the semantics of the values inside it (metric names, RNG
// stream derivations, solver defaults). It is written into every report
// ("schema_version") and digested into the persistent result store's cell
// keys and payloads — bump it whenever a change would make previously
// produced samples unequal to freshly computed ones, so stale cache entries
// invalidate cleanly and old report files say which version they are.
inline constexpr int kReportSchemaVersion = 1;

// One measured value. `routing` is -1 for routing-independent metrics.
struct Sample {
  int topology = 0;        // index into Scenario::topologies
  int routing = -1;        // index into Scenario::routings, or -1
  std::uint64_t seed = 0;
  int sample = 0;          // traffic sample or growth step (SampleIndex)
  std::string metric;      // sample_name of a series in MetricInfo::samples
  double value = 0.0;
};

// Aggregate over all (seed, sample) observations of one
// (topology, routing, metric) series.
struct AggregateRow {
  std::string topology;
  std::string routing;  // "-" for routing-independent metrics
  std::string metric;
  Summary summary;
};

struct Report {
  std::string scenario;
  std::vector<std::string> topology_labels;
  std::vector<std::string> routing_labels;
  std::vector<Sample> samples;

  // Summaries grouped by (topology, routing, metric), in first-appearance
  // order of the samples (i.e. canonical scenario order).
  std::vector<AggregateRow> aggregates() const;

  // Values of one series across seeds/samples, in canonical order.
  std::vector<double> series(int topology, int routing, const std::string& metric) const;

  // Aggregate table: topology | routing | metric | mean | stddev | min | max | n.
  Table to_table() const;
};

}  // namespace jf::eval
