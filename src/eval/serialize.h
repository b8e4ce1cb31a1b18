// JSON serialization for the experiment farm: Scenario/SweepSpec loaders and
// Report writers.
//
// Scenario files are strict — an unknown key anywhere is an error naming the
// offending key and its context path (catching config typos beats silently
// running the wrong experiment) — while known keys may be omitted and take
// the C++ defaults. Writers emit every field in a fixed order, so
// write -> load -> write is byte-identical, and Report JSON carries both the
// raw per-seed samples and the derived aggregates.
//
// The Scenario writer and loader are generated from the scenario field
// table (eval/field_table.h): one row per key, walked in row order by the
// writer and through the same rows by the loader, which also enforces each
// row's closed name set or [0, 1] range. Sweep fields come from the same
// rows, so every swept or loaded field is also written — and the written
// bytes are the result store's cell key.
//
// A scenario file is a JSON object of Scenario fields; an optional "sweep"
// key turns it into a SweepSpec (see sweep.h):
//
//   {
//     "name": "fig02a",
//     "topologies": [{"family": "jellyfish", "switches": 720, "ports": 24,
//                     "servers": 1440}],
//     "metrics": ["bisection"],
//     "seeds": [1, 2],
//     "sweep": [{"field": "topology.servers",
//                "from": 1440, "to": 6480, "step": 720}]
//   }
//
// Sweep axes accept a bare entry object ({"field", "only"?, and either
// "values": [...] or "from"/"to"/"step"}) or {"entries": [entry, ...]} for
// zipped multi-field axes. Ranges are inclusive and expand at load time.
#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "eval/engine.h"
#include "eval/report.h"
#include "eval/scenario.h"
#include "eval/sweep.h"

namespace jf::eval {

// --- Scenario / SweepSpec ---

json::Value scenario_to_json(const Scenario& s);
// Strict loader; throws std::invalid_argument on unknown keys, bad kinds,
// unknown names (metric, traffic kind, topology family, routing scheme,
// ...), or bad sweep ranges.
Scenario scenario_from_json(const json::Value& v);

// Scenario fields plus the "sweep" key (omitted when there are no axes).
json::Value sweep_to_json(const SweepSpec& spec);
// Accepts a plain scenario object too (no "sweep" key -> zero axes).
SweepSpec sweep_from_json(const json::Value& v);

// Reads and parses a scenario/sweep file. Throws std::runtime_error when the
// file cannot be read, json::ParseError on syntax, std::invalid_argument on
// schema violations.
SweepSpec load_sweep_file(const std::string& path);

// --- Report ---

// {"schema_version", "scenario", "topologies", "routings",
//  "samples": [[topology, routing, seed, sample, metric, value], ...],
//  "aggregates": [{topology, routing, metric, mean, stddev, min, max, n}]}
json::Value report_to_json(const Report& r);
// Rebuilds a Report from its JSON (aggregates are recomputed from samples).
// A "schema_version" different from kReportSchemaVersion is rejected with
// std::invalid_argument — old report files must fail loudly, not mis-parse.
Report report_from_json(const json::Value& v);

// Raw sample rows <-> [[topology, routing, seed, sample, metric, value],
// ...]. The same encoding report JSON uses for its "samples" key; also the
// value payload format of the persistent result store's cell entries.
// Round trips are exact: numbers use shortest-round-trip formatting, so a
// parsed-back sample vector is bit-identical to the one serialized.
json::Value samples_to_json(const std::vector<Sample>& samples);
std::vector<Sample> samples_from_json(const json::Value& v);

// {"name", "points": [{"label", "coords": [{"field", "value"}, ...],
//                      "report": {...}}]}
json::Value sweep_report_to_json(const SweepReport& r);

// --- Telemetry dumps (jf_eval run --telemetry-out) ---

// Version of the telemetry dump format, independent of the report schema.
// Bump on any change to the dump's shape or field semantics; loads reject
// mismatches.
inline constexpr int kTelemetrySchemaVersion = 1;

// One sweep point's telemetry (a plain run is a single point labeled with
// the scenario name).
struct TelemetryPoint {
  std::string label;
  ScenarioTelemetry cells;
};

struct TelemetryDump {
  std::string name;
  std::vector<TelemetryPoint> points;
};

// {"schema_version", "name", "points": [{"label", "cells": [{"topology",
//  "routing", "seed", "sample", "epoch_ns", "t_end_ns",
//  "flows": [[src, dst, start_ns, finish_ns, completed, bytes_acked,
//             packets_sent, retransmits, timeouts, path_drops, hop_count],
//            ...],
//  "links": [{"rate_bps", "epochs": [[tx_packets, tx_bytes, drops,
//             utilization, hist0..hist7], ...]}, ...]}]}]}
// Strict round trip: unknown keys error, numbers use shortest-round-trip
// formatting, and write -> load -> write is byte-identical.
json::Value telemetry_dump_to_json(const TelemetryDump& d);
TelemetryDump telemetry_dump_from_json(const json::Value& v);

}  // namespace jf::eval
