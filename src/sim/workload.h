// High-level packet-simulation harness (paper §5 experiments).
//
// Builds a simulator from a Topology: every cable becomes two directed
// links, every server gets NIC up/down links, every traffic-matrix flow
// becomes one or more transport connections routed per the chosen scheme.
// This is the engine behind Table 1 and Figs. 10-13: it reports normalized
// per-server and per-flow goodput under {TCP x n, MPTCP x k subflows} over
// {ECMP-w, KSP-k} routing.
//
// Every workload runs on sharded::ShardedSimulator. With cfg.shards == 1 it
// uses one shard and no plan: one round over one canonical queue, the
// reference run. With shards > 1 the link set is partitioned
// (sharded::ShardPlan — per-switch KL domains, servers pinned with their
// ToR) and the conservative-lookahead rounds run on workers borrowed from
// the caller's WorkBudget. Results are byte-identical at any shard or
// worker count.
#pragma once

#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "routing/path_provider.h"
#include "routing/paths.h"
#include "sim/core.h"
#include "sim/telemetry.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace jf::sim {

enum class Transport {
  kTcp,    // `parallel_connections` independent NewReno connections per flow
  kMptcp,  // one connection with `subflows` LIA-coupled subflows
};

struct WorkloadConfig {
  routing::RoutingOptions routing;
  Transport transport = Transport::kTcp;
  int parallel_connections = 1;  // TCP connections per traffic-matrix flow
  int subflows = 8;              // MPTCP subflows per flow
  SimConfig sim;
  // Event-loop sharding: 1 runs the engine on one shard (the single-queue
  // reference run); N > 1 partitions the links into (up to) N shards run in
  // parallel rounds. Purely a speed knob — goodput, drops, and retransmit
  // counts are byte-identical at any value.
  int shards = 1;
  TimeNs warmup_ns = 15 * kMillisecond;   // slow-start convergence
  TimeNs measure_ns = 40 * kMillisecond;
  TimeNs start_jitter_ns = 500 * kMicrosecond;  // desynchronizes flow starts
  // Transfer size per transport connection (TCP connection / MPTCP flow);
  // 0 = backlogged for the whole run. Sized flows let telemetry report true
  // flow completion times instead of observed-time FCTs.
  std::int64_t flow_size_bytes = 0;
  // Epoch length of the telemetry layer's per-link series (sim/telemetry.h);
  // callers constructing their own Telemetry should use this value.
  TimeNs telemetry_epoch_ns = 5 * kMillisecond;
};

struct WorkloadResult {
  // Normalized goodput per traffic-matrix flow (sums parallel connections /
  // subflows; 1.0 = receiver NIC fully utilized).
  std::vector<double> per_flow;
  // Normalized receive goodput per server (0 for servers receiving nothing).
  std::vector<double> per_server;
  double mean_flow_throughput = 0.0;
  double jain_fairness = 0.0;
  std::int64_t packet_drops = 0;
  std::int64_t total_retransmits = 0;
};

// Runs the traffic matrix on the topology and reports goodput statistics.
// Deterministic given (topology, tm, config, rng seed). Routing comes from
// cfg.routing, resolved through routing::make_path_provider. `budget` (may
// be null) lends workers to the sharded engine when cfg.shards > 1.
// `telemetry` (may be null), built with cfg.telemetry_epoch_ns, is attached
// to the engine for the run and finalized before returning; recording is
// purely observational — the WorkloadResult is byte-identical either way.
WorkloadResult run_workload(const topo::Topology& topo, const traffic::TrafficMatrix& tm,
                            const WorkloadConfig& cfg, Rng& rng,
                            parallel::WorkBudget* budget = nullptr,
                            Telemetry* telemetry = nullptr);

// Same, but routes every flow through the given provider (cfg.routing is
// ignored). This is the entry point for custom schemes and jf::eval.
WorkloadResult run_workload(const topo::Topology& topo, const traffic::TrafficMatrix& tm,
                            const WorkloadConfig& cfg, routing::PathProvider& routes,
                            Rng& rng, parallel::WorkBudget* budget = nullptr,
                            Telemetry* telemetry = nullptr);

// Convenience: samples a random server permutation and runs it.
WorkloadResult run_permutation_workload(const topo::Topology& topo, const WorkloadConfig& cfg,
                                        Rng& rng, parallel::WorkBudget* budget = nullptr,
                                        Telemetry* telemetry = nullptr);

}  // namespace jf::sim
