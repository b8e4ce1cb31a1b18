// Packet-sim within-cell scaling benchmark — the perf trajectory for the
// sharded conservative-lookahead event engine.
//
// Runs one permutation workload (the shape behind Table 1 / Figs. 10-13) on
// a jellyfish topology: once at one shard as the reference (one round over
// one event queue), then at several (shards, threads) points. Every run's per-flow
// goodput, drop count, and retransmit count must be byte-identical to the
// one-shard reference — the benchmark doubles as a determinism check —
// and the output is a schema-v1 perf record (src/obs/perfrec.h) with every
// repeat's wall time and the engine's deterministic work counters. Run from
// the repo root:
//
//   ./build/bench_sim_scaling [--switches N] [--degree R] [--ports K]
//                             [--measure-ms M] [--repeats K] [--git-sha SHA]
//                             [--out BENCH_sim.json]
//
// Telemetry overhead is measured from *paired* repeats: repeat k with the
// recorder attached against repeat k without, reported as the median and
// MAD of the per-pair ratios. A single best-of-on vs best-of-off quotient
// is noise when the gap is small — an unlucky off-sample once reported a
// negative overhead — whereas the pair spread makes the noise floor
// explicit in the record.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/perfrec.h"
#include "sim/telemetry.h"
#include "sim/workload.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

namespace {

using namespace jf;

// The deterministic work block: schedule-independent counters only. Every
// point records all four; sim.events is the same at every shard count, and
// shards=1 reads sim.rounds 1 and sim.handoffs 0.
const std::vector<std::string> kWorkMetrics = {"sim.runs", "sim.rounds", "sim.events",
                                               "sim.handoffs"};

bool same_result(const sim::WorkloadResult& a, const sim::WorkloadResult& b) {
  return a.per_flow == b.per_flow && a.per_server == b.per_server &&
         a.packet_drops == b.packet_drops && a.total_retransmits == b.total_retransmits;
}

}  // namespace

int main(int argc, char** argv) {
  int switches = 48;
  int degree = 8;
  int ports = 12;
  int measure_ms = 20;
  int repeats = 2;
  std::string git_sha;
  std::string out_path = "BENCH_sim.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "bench_sim_scaling: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--switches") {
      switches = bench::int_arg("bench_sim_scaling", arg, value(), 1);
    } else if (arg == "--degree") {
      degree = bench::int_arg("bench_sim_scaling", arg, value(), 1);
    } else if (arg == "--ports") {
      ports = bench::int_arg("bench_sim_scaling", arg, value(), 1);
    } else if (arg == "--measure-ms") {
      measure_ms = bench::int_arg("bench_sim_scaling", arg, value(), 1);
    } else if (arg == "--repeats") {
      repeats = bench::int_arg("bench_sim_scaling", arg, value(), 1);
    } else if (arg == "--git-sha") {
      git_sha = value();
    } else if (arg == "--out") {
      out_path = value();
    } else {
      std::cerr << "usage: bench_sim_scaling [--switches N] [--degree R] [--ports K]"
                   " [--measure-ms M] [--repeats K] [--git-sha SHA] [--out FILE]\n";
      return 2;
    }
  }

  try {
    obs::set_metrics_enabled(true);
    constexpr std::uint64_t kSeed = 1;
    Rng build_rng(kSeed);
    auto topo = topo::build_jellyfish(
        {.num_switches = switches, .ports_per_switch = ports, .network_degree = degree},
        build_rng);
    auto tm = traffic::random_permutation(topo.num_servers(), build_rng);

    sim::WorkloadConfig cfg;
    cfg.warmup_ns = 5 * sim::kMillisecond;
    cfg.measure_ns = static_cast<sim::TimeNs>(measure_ms) * sim::kMillisecond;
    // One provider, fully warmed by the reference run, shared by every
    // timed run so route enumeration stays out of the measurement.
    auto routes = routing::make_path_provider(topo.switches(), {"ksp", 4});

    // `rec` (may be null) attaches the telemetry layer for the run — the
    // on-vs-off wall-time gap is the recording overhead, and the result
    // must be byte-identical either way (recording is observational).
    auto run_once = [&](int shards, int threads, sim::WorkloadResult& out,
                        sim::Telemetry* rec) {
      sim::WorkloadConfig c = cfg;
      c.shards = shards;
      Rng rng(kSeed + 100);
      obs::WallTimer timer;
      if (threads <= 1) {
        out = sim::run_workload(topo, tm, c, *routes, rng, nullptr, rec);
      } else {
        parallel::WorkBudget budget(threads - 1);
        out = sim::run_workload(topo, tm, c, *routes, rng, &budget, rec);
      }
      return timer.seconds();
    };

    std::cerr << "instance: " << switches << " switches, degree " << degree << ", "
              << topo.num_servers() << " servers, " << tm.flows.size() << " flows, "
              << cfg.measure_ns / sim::kMillisecond << " ms measured\n";

    obs::PerfRecorder record("sim_scaling",
                             obs::current_fingerprint(bench::resolve_git_sha(git_sha)));
    record.set_meta("switches", json::Value(switches));
    record.set_meta("network_degree", json::Value(degree));
    record.set_meta("ports", json::Value(ports));
    record.set_meta("servers", json::Value(topo.num_servers()));
    record.set_meta("flows", json::Value(static_cast<std::int64_t>(tm.flows.size())));
    record.set_meta("measure_ms", json::Value(measure_ms));
    record.set_meta("repeats", json::Value(repeats));

    // One-shard warm-up run: the byte-identity reference for every later
    // run, and it fully warms the shared path provider.
    sim::WorkloadResult reference;
    run_once(1, 1, reference, nullptr);
    sim::TelemetryDataset reference_data;
    {
      sim::Telemetry rec(sim::TelemetryConfig{cfg.telemetry_epoch_ns});
      sim::WorkloadResult res;
      run_once(1, 1, res, &rec);
      if (!same_result(res, reference)) {
        std::cerr << "bench_sim_scaling: telemetry changed the one-shard result — "
                     "observational contract broken\n";
        return 1;
      }
      reference_data = rec.take_dataset();
    }

    double serial_median = 0.0;
    for (int shards : {1, 2, 8}) {
      for (int threads : {1, 2, 4, 8}) {
        if (shards == 1 && threads > 1) continue;  // one shard borrows no workers
        json::Object params;
        params.emplace_back("shards", shards);
        params.emplace_back("threads", threads);
        obs::PerfPoint& point = record.add_point(
            "shards=" + std::to_string(shards) + ",threads=" + std::to_string(threads),
            std::move(params));

        // Paired repeats: telemetry off, then on, back to back. The pair
        // ratio (on_k / off_k - 1) cancels slow drift of the host; its
        // median and MAD are the overhead estimate and its noise floor.
        sim::WorkloadResult res;
        std::vector<double> telem_seconds;
        std::vector<double> overhead_pcts;
        for (int k = 0; k < repeats; ++k) {
          obs::reset_metrics();
          const double off = run_once(shards, threads, res, nullptr);
          auto work = obs::snapshot_work(kWorkMetrics);
          if (k == 0) {
            point.work = std::move(work);
          } else if (work != point.work) {
            std::cerr << "bench_sim_scaling: work counters drifted across repeats at "
                      << "shards " << shards << ", threads " << threads
                      << " — determinism bug\n";
            return 1;
          }
          if (!same_result(res, reference)) {
            std::cerr << "bench_sim_scaling: results diverged at shards " << shards
                      << ", threads " << threads << " — determinism bug\n";
            return 1;
          }
          sim::Telemetry rec(sim::TelemetryConfig{cfg.telemetry_epoch_ns});
          const double on = run_once(shards, threads, res, &rec);
          if (!same_result(res, reference) || !(rec.dataset() == reference_data)) {
            std::cerr << "bench_sim_scaling: telemetry run diverged at shards " << shards
                      << ", threads " << threads << " — determinism bug\n";
            return 1;
          }
          point.wall_seconds.push_back(off);
          telem_seconds.push_back(on);
          if (off > 0) overhead_pcts.push_back(100.0 * (on / off - 1.0));
        }

        const obs::WallStats ws = obs::derive_wall_stats(point.wall_seconds);
        if (shards == 1 && threads == 1) serial_median = ws.median_seconds;
        const double speedup =
            ws.median_seconds > 0 ? serial_median / ws.median_seconds : 0.0;
        const obs::WallStats over = obs::derive_wall_stats(overhead_pcts);
        std::cerr << "shards " << shards << " threads " << threads << ": median "
                  << ws.median_seconds << " s  (speedup " << speedup
                  << "x, telemetry overhead " << over.median_seconds << "% ± "
                  << over.mad_seconds << "%)\n";
        point.extra.emplace_back("speedup_vs_serial", speedup);
        json::Array telem;
        for (double s : telem_seconds) telem.emplace_back(s);
        point.extra.emplace_back("telemetry_wall_seconds", json::Value(std::move(telem)));
        point.extra.emplace_back("telemetry_overhead_pct", over.median_seconds);
        point.extra.emplace_back("telemetry_overhead_mad_pct", over.mad_seconds);
      }
    }

    record.write(out_path);
    std::cerr << "wrote " << out_path << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_sim_scaling: error: " << e.what() << "\n";
    return 1;
  }
}
