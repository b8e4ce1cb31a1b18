// jf_eval — the experiment-farm CLI.
//
// Runs scenario/sweep JSON files (see eval/serialize.h for the format)
// through the jf::eval engine without recompiling anything:
//
//   jf_eval run scenarios/fig02a.json --threads 8 --out r.json
//   jf_eval run scenarios/smoke.json --format csv
//   jf_eval run scenarios/fig02a.json --cache-dir ~/.cache/jf   # incremental
//   jf_eval print scenarios/fig04.json     # validate + list sweep points
//   jf_eval list                           # families, schemes, metrics, axes
//
// `run` streams one progress line per completed sweep point to stderr and
// renders the result per --format: "table" (aligned aggregates), "csv"
// (machine-greppable lines), or "json" (full per-seed samples + aggregates).
// With --out the rendering goes to the file (default json); without it, to
// stdout (default table). Reports are byte-identical at any --threads, and
// — with --cache-dir — whether the result store is absent, cold, or warm.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/flags.h"
#include "common/fs.h"
#include "common/stats.h"
#include "common/table.h"
#include "eval/serialize.h"
#include "eval/sweep.h"
#include "eval/topology_factory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/path_provider.h"
#include "store/result_store.h"

namespace {

using namespace jf;
namespace fs = std::filesystem;

int usage(std::ostream& os, int code) {
  os << "usage: jf_eval <command> [args]\n"
        "\n"
        "commands:\n"
        "  run <scenario.json> [--threads N] [--sim-shards N] [--out FILE]\n"
        "                      [--format table|csv|json] [--quiet]\n"
        "                      [--cache-dir DIR] [--cache-budget-mb N]\n"
        "                      [--trace-out FILE] [--metrics-out FILE]\n"
        "                      [--telemetry-out FILE] [--stats-json FILE]\n"
        "      Execute the scenario (or sweep) and render the report.\n"
        "      --threads N   global worker budget shared by concurrent cells and\n"
        "                    within-cell solvers (0 = hardware concurrency);\n"
        "                    reports are byte-identical at any value\n"
        "      --sim-shards N  override the scenario's sim.shards knob (packet-sim\n"
        "                    event-loop sharding; reports are byte-identical at\n"
        "                    any value — this is the CI determinism-gate hook)\n"
        "      --out FILE    write the report to FILE (default format: json)\n"
        "      --format F    report rendering; default json with --out, else table\n"
        "      --quiet       suppress progress/stats lines on stderr\n"
        "      --cache-dir DIR  persistent content-addressed result store: cells\n"
        "                    already solved (by any earlier run sharing the dir)\n"
        "                    are spliced from disk instead of re-solved, so\n"
        "                    re-running an edited sweep recomputes only changed\n"
        "                    points. Reports are byte-identical with the cache\n"
        "                    absent, cold, or warm.\n"
        "      --cache-budget-mb N  evict least-recently-used cache entries past\n"
        "                    N megabytes (default: unlimited)\n"
        "      --trace-out FILE  record scoped spans (engine cells, MCF solves,\n"
        "                    sim rounds, store ops) and write Chrome trace-event\n"
        "                    JSON — load in chrome://tracing or Perfetto. Purely\n"
        "                    observational: the report stays byte-identical.\n"
        "      --metrics-out FILE  write the merged counter/gauge/histogram\n"
        "                    registry as plain JSON after the run\n"
        "      --telemetry-out FILE  write the full data-plane telemetry dataset\n"
        "                    (per-flow FCT records + per-link epoch series of every\n"
        "                    simulated cell — see eval/serialize.h) as JSON. Purely\n"
        "                    observational: the report stays byte-identical. Needs a\n"
        "                    packet_sim/flow_stats metric to produce cells; not\n"
        "                    combinable with --cache-dir (a cache hit would skip the\n"
        "                    simulation that records the data).\n"
        "      --stats-json FILE  atomic machine-readable mirror of the stderr\n"
        "                    [stats] line: same keys, times as plain seconds.\n"
        "                    Works with --quiet (the line is suppressed, the\n"
        "                    file is still written).\n"
        "  print <scenario.json>\n"
        "      Validate the file and list the expanded sweep points (dry run).\n"
        "  list\n"
        "      Show topology families, routing schemes, metrics, and sweep fields.\n";
  return code;
}

std::string render(const eval::SweepReport& report, const std::string& format) {
  if (format == "json") return eval::sweep_report_to_json(report).dump(2) + "\n";
  std::ostringstream out;
  Table table = report.to_table();
  if (format == "table") {
    table.print(out);
  } else if (format == "csv") {
    table.print_csv(out);
  } else {
    throw std::invalid_argument("unknown --format '" + format +
                                "' (expected table, csv, or json)");
  }
  return out.str();
}

// "1.234": the fixed three-decimal form every [stats] value other than a
// count takes.
std::string fixed3(double x) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << x;
  return os.str();
}

// Per-phase wall-time sums: the key shown and the metrics distribution it
// sums. t_warm/t_cells are batch phases; the remaining keys are summed task
// time across workers, so t_solve can exceed wall on a parallel run.
constexpr std::pair<const char*, const char*> kPhases[] = {
    {"t_warm", "engine.phase_warm_ns"}, {"t_cells", "engine.phase_cells_ns"},
    {"t_solve", "engine.cell_solve_ns"}, {"t_mcf_sweep", "mcf.sweep_ns"},
    {"t_mcf_apply", "mcf.apply_ns"},    {"t_store_get", "store.get_ns"},
    {"t_store_put", "store.put_ns"},
};

// One entry of a batch's [stats] accounting. The stderr line shows
// `key=value` (a count as an integer, a time as "1.234s", a ratio as
// "0.123"); --stats-json holds `json_key: value`, times as plain seconds,
// nested in the object named `group` when there is one.
struct StatRow {
  const char* group;  // nullptr: top level
  const char* key;
  const char* json_key;
  std::variant<std::int64_t, double> value;
  const char* unit = "";  // appended to a double on the line
};

// Everything one batch's [stats] line reports, in line order; both
// renderers below walk these rows, so the line and --stats-json carry the
// same entries. Keys are stable (CI's cold-vs-warm gate asserts on
// "solved=0") and new ones append only.
std::vector<StatRow> collect_stats(const eval::BatchStats& batch,
                                   const store::ResultStore* store, double wall_secs,
                                   const std::vector<eval::ScenarioTelemetry>* telemetry) {
  std::vector<StatRow> rows;
  auto count = [&](const char* group, const char* key, std::int64_t n) {
    rows.push_back({group, key, key, n});
  };
  count(nullptr, "cells", batch.cells);
  count(nullptr, "solved", batch.solved);
  count(nullptr, "memo_hits", batch.memo_hits);
  count(nullptr, "store_hits", batch.store_hits);
  if (store != nullptr) {
    count(nullptr, "store_entries", static_cast<std::int64_t>(store->entry_count()));
    count(nullptr, "store_bytes", static_cast<std::int64_t>(store->total_bytes()));
  }
  rows.push_back({nullptr, "wall", "wall_seconds", wall_secs, "s"});
  if (obs::metrics_enabled()) {
    const obs::MetricsSnapshot snap = obs::collect_metrics();
    for (const auto& [key, dist] : kPhases) {
      const obs::DistributionSnapshot* d = snap.find_distribution(dist);
      if (d != nullptr && d->count > 0) {
        rows.push_back({"phases_seconds", key, key, static_cast<double>(d->sum) / 1e9, "s"});
      }
    }
  }
  if (telemetry != nullptr) {
    // Flow count, FCT tail, and the hottest link's whole-run utilization
    // across every simulated cell of the batch.
    std::int64_t flows = 0;
    std::vector<double> fct;
    double worst_link_util = 0.0;
    for (const auto& p : *telemetry) {
      for (const auto& c : p.cells) {
        flows += static_cast<std::int64_t>(c.data.flows.size());
        for (const auto& f : c.data.flows) fct.push_back(sim::fct_seconds(f));
        worst_link_util = std::max(worst_link_util, sim::worst_link_utilization(c.data));
      }
    }
    count("telemetry", "flows", flows);
    if (!fct.empty()) {
      rows.push_back({"telemetry", "fct_p99", "fct_p99_seconds", percentile(fct, 99.0), "s"});
    }
    rows.push_back({"telemetry", "worst_link_util", "worst_link_util", worst_link_util});
  }
  return rows;
}

// One greppable accounting line per executed batch. Deliberately on
// stderr: report bytes must not depend on cache state.
std::string stats_line(const std::vector<StatRow>& rows) {
  std::string line = "[stats]";
  for (const StatRow& row : rows) {
    line += std::string(" ") + row.key + "=";
    if (const auto* n = std::get_if<std::int64_t>(&row.value)) {
      line += std::to_string(*n);
    } else {
      line += fixed3(std::get<double>(row.value)) + row.unit;
    }
  }
  return line;
}

// Machine-readable mirror of the [stats] line (--stats-json), so a harness
// never re-parses the human format.
json::Value stats_json(const std::vector<StatRow>& rows) {
  json::Object o;
  for (const StatRow& row : rows) {
    json::Value v = std::visit([](auto x) { return json::Value(x); }, row.value);
    if (row.group == nullptr) {
      o.emplace_back(row.json_key, std::move(v));
      continue;
    }
    if (o.empty() || o.back().first != row.group) o.emplace_back(row.group, json::Object{});
    o.back().second.as_object().emplace_back(row.json_key, std::move(v));
  }
  return json::Value(std::move(o));
}

// Zips the collected per-point telemetry with the sweep report's point
// labels into the dump eval/serialize.h defines.
eval::TelemetryDump build_telemetry_dump(const eval::SweepReport& report,
                                         std::vector<eval::ScenarioTelemetry>&& telemetry) {
  eval::TelemetryDump dump;
  dump.name = report.name;
  dump.points.resize(telemetry.size());
  for (std::size_t i = 0; i < telemetry.size(); ++i) {
    dump.points[i].label =
        i < report.points.size() ? report.points[i].label : std::to_string(i);
    dump.points[i].cells = std::move(telemetry[i]);
  }
  return dump;
}

// Writes the trace / metrics dumps for whichever paths were requested.
void export_observability(const std::string& trace_out, const std::string& metrics_out) {
  if (!trace_out.empty()) {
    common::write_file_atomic(fs::path(trace_out), obs::trace_to_json().dump() + "\n");
  }
  if (!metrics_out.empty()) {
    common::write_file_atomic(fs::path(metrics_out),
                              obs::metrics_to_json(obs::collect_metrics()).dump(2) + "\n");
  }
}

std::unique_ptr<store::ResultStore> open_store(const std::string& dir, int budget_mb) {
  if (dir.empty()) {
    if (budget_mb > 0) {
      throw std::invalid_argument("--cache-budget-mb needs --cache-dir");
    }
    return nullptr;
  }
  store::StoreOptions opts;
  if (budget_mb > 0) opts.max_bytes = static_cast<std::uint64_t>(budget_mb) * 1024 * 1024;
  return std::make_unique<store::ResultStore>(fs::path(dir), opts);
}

int cmd_run(int argc, char** argv) {
  std::string path;
  std::string out_path;
  std::string format;
  std::string cache_dir;
  std::string trace_out;
  std::string metrics_out;
  std::string telemetry_out;
  std::string stats_json_out;
  int cache_budget_mb = 0;
  int threads = 0;
  int sim_shards = 0;
  bool quiet = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--threads") {
      threads = int_flag(arg, value(), 0);
    } else if (arg == "--sim-shards") {
      sim_shards = int_flag(arg, value(), 1);
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--format") {
      format = value();
    } else if (arg == "--cache-dir") {
      cache_dir = value();
    } else if (arg == "--cache-budget-mb") {
      cache_budget_mb = int_flag(arg, value(), 1);
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else if (arg == "--metrics-out") {
      metrics_out = value();
    } else if (arg == "--telemetry-out") {
      telemetry_out = value();
    } else if (arg == "--stats-json") {
      stats_json_out = value();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      throw std::invalid_argument("unknown option '" + arg + "'");
    } else if (path.empty()) {
      path = arg;
    } else {
      throw std::invalid_argument("unexpected argument '" + arg + "'");
    }
  }
  if (path.empty()) throw std::invalid_argument("run: missing scenario file");
  if (!telemetry_out.empty() && !cache_dir.empty()) {
    throw std::invalid_argument(
        "--telemetry-out cannot be combined with --cache-dir (a cache hit would "
        "skip the simulation that records the telemetry)");
  }
  if (format.empty()) format = out_path.empty() ? "table" : "json";
  // Fail on a bad format before the (possibly long) sweep executes.
  if (format != "table" && format != "csv" && format != "json") {
    throw std::invalid_argument("unknown --format '" + format +
                                "' (expected table, csv, or json)");
  }

  eval::SweepSpec spec = eval::load_sweep_file(path);
  if (sim_shards > 0) {
    // The override rewrites the base scenario, which sweep expansion would
    // silently overwrite again for a swept sim.shards — refuse rather than
    // let the flag claim an engine choice it cannot deliver.
    const eval::AxisEntry shards{"sim.shards", "", {}};
    if (spec.sweeps(shards.field)) {
      throw std::invalid_argument("--sim-shards conflicts with the scenario's '" +
                                  shards.field + "' sweep axis");
    }
    eval::apply_sweep_value(spec.base, shards, sim_shards);
  }
  eval::SweepProgress progress;
  if (!quiet) {
    progress = [](int done, int total, const eval::SweepPointResult& point, double secs) {
      std::cerr << "[" << done << "/" << total << "] " << point.label << "  ("
                << point.report.samples.size() << " samples, " << secs << "s)\n";
    };
  }
  auto store = open_store(cache_dir, cache_budget_mb);
  eval::BatchStats stats;
  eval::EngineOptions opts;
  opts.threads = threads;
  opts.store = store.get();
  opts.stats = &stats;
  std::vector<eval::ScenarioTelemetry> telemetry;
  if (!telemetry_out.empty()) opts.telemetry = &telemetry;
  // Collection is purely observational (the report is byte-identical either
  // way — gated in tests and CI), so metrics default on whenever the stats
  // line will be shown or a dump was requested.
  obs::set_metrics_enabled(!quiet || !metrics_out.empty() || !stats_json_out.empty());
  obs::set_trace_enabled(!trace_out.empty());
  // detlint: ok(wall time feeds only the stderr [stats] line, never the report)
  const auto run_t0 = std::chrono::steady_clock::now();
  eval::SweepReport report = eval::run_sweep(spec, opts, progress);
  const double wall_secs =  // detlint: ok(stderr [stats] accounting only)
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_t0).count();
  const std::vector<StatRow> record =
      collect_stats(stats, store.get(), wall_secs, opts.telemetry);
  if (!quiet) std::cerr << stats_line(record) << "\n";
  if (!stats_json_out.empty()) {
    common::write_file_atomic(fs::path(stats_json_out), stats_json(record).dump(2) + "\n");
  }
  export_observability(trace_out, metrics_out);
  if (!telemetry_out.empty()) {
    const eval::TelemetryDump dump = build_telemetry_dump(report, std::move(telemetry));
    const std::string bytes = eval::telemetry_dump_to_json(dump).dump() + "\n";
    common::write_file_atomic(fs::path(telemetry_out), bytes);
    if (!quiet) {
      std::cerr << "wrote " << bytes.size() << " bytes (telemetry) to " << telemetry_out
                << "\n";
    }
  }

  const std::string rendered = render(report, format);
  if (out_path.empty()) {
    std::cout << rendered;
  } else {
    // Atomic temp-file+rename like every other report writer: a consumer
    // polling --out (or a crashed run) must never see a torn report.
    common::write_file_atomic(fs::path(out_path), rendered);
    if (!quiet) {
      std::cerr << "wrote " << rendered.size() << " bytes (" << format << ") to "
                << out_path << "\n";
    }
  }
  return 0;
}

int cmd_print(int argc, char** argv) {
  if (argc < 1) throw std::invalid_argument("print: missing scenario file");
  if (argc > 1) {
    throw std::invalid_argument("print: unexpected argument '" + std::string(argv[1]) + "'");
  }
  eval::SweepSpec spec = eval::load_sweep_file(argv[0]);
  auto points = eval::expand_sweep(spec);
  std::cout << "scenario: " << spec.base.name << "\n"
            << "topologies: " << spec.base.topologies.size()
            << "  routings: " << spec.base.routings.size()
            << "  seeds: " << spec.base.seeds.size()
            << "  metrics: " << spec.base.metrics.size() << "\n"
            << "sweep axes: " << spec.axes.size() << " -> " << points.size()
            << " point(s)\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::cout << "  [" << i + 1 << "] " << points[i].label << "\n";
  }
  return 0;
}

int cmd_list() {
  std::cout << "topology families:";
  for (const auto& f : eval::topology_families()) {
    std::cout << " " << f << (eval::topology_family_deterministic(f) ? "*" : "");
  }
  std::cout << "   (* = deterministic, shares path caches across seeds)\n";
  std::cout << "routing schemes:  ";
  for (const auto& s : routing::path_provider_schemes()) std::cout << " " << s;
  std::cout << "\nmetrics:\n";
  std::size_t width = 0;
  for (eval::Metric m : eval::all_metrics()) {
    width = std::max(width, eval::metric_name(m).size());
  }
  for (eval::Metric m : eval::all_metrics()) {
    const std::string name = eval::metric_name(m);
    std::cout << "  " << name << std::string(width - name.size() + 2, ' ')
              << eval::metric_description(m) << "\n";
  }
  std::cout << "sweep fields:     ";
  for (const auto& f : eval::sweep_fields()) std::cout << " " << f;
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string cmd = argv[1];
  try {
    if (cmd == "run") return cmd_run(argc - 2, argv + 2);
    if (cmd == "print") return cmd_print(argc - 2, argv + 2);
    if (cmd == "list") return cmd_list();
    if (cmd == "--help" || cmd == "-h" || cmd == "help") return usage(std::cout, 0);
    std::cerr << "jf_eval: unknown command '" << cmd << "'\n";
    return usage(std::cerr, 2);
  } catch (const std::exception& e) {
    std::cerr << "jf_eval: error: " << e.what() << "\n";
    return 1;
  }
}
