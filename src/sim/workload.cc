#include "sim/workload.h"

#include <algorithm>

#include "common/check.h"
#include "common/stats.h"
#include "flow/link_index.h"
#include "obs/trace.h"
#include "sim/sharded/plan.h"
#include "sim/sharded/sharded_sim.h"

namespace jf::sim {

namespace {

// Mixes flow identity into a stable 64-bit ECMP-style hash key.
std::uint64_t flow_key(int tm_flow, int connection, int subflow) {
  return (static_cast<std::uint64_t>(tm_flow) << 20) ^
         (static_cast<std::uint64_t>(connection) << 8) ^ static_cast<std::uint64_t>(subflow);
}

// Stream tag for the shard plan's KL restarts. The plan draws from a fork
// of the workload rng, so one-shard and multi-shard runs consume identical
// start-jitter sequences from the parent stream.
constexpr std::uint64_t kShardPlanStream = 0x5bad'c0de;

// Builds links, flows, and subflows from the traffic matrix, runs the
// simulation, and collects the result. `shard_of(switch)` pins links and
// endpoints; without a plan everything lives in one shard.
WorkloadResult run_workload_on(const topo::Topology& topo, const traffic::TrafficMatrix& tm,
                               const WorkloadConfig& cfg, routing::PathProvider& routes,
                               Rng& rng, const sharded::ShardPlan* plan,
                               parallel::WorkBudget* budget, Telemetry* telemetry) {
  sharded::ShardedSimulator sim(cfg.sim, plan ? plan->num_shards : 1);
  const auto& g = topo.switches();
  flow::LinkIndex link_index(g);
  auto shard_of = [&](graph::NodeId sw) {
    return plan ? plan->switch_shard[static_cast<std::size_t>(sw)] : 0;
  };

  // Switch-to-switch links first, in LinkIndex order: edge {a<b} -> ids
  // (base: a->b, base+1: b->a). A directed link is owned by its tail
  // switch's shard — the transmitting side.
  {
    int next = 0;
    for (const auto& e : g.edges()) {
      const int ab = sim.add_link(shard_of(e.a));
      const int ba = sim.add_link(shard_of(e.b));
      ensure(ab == next && ba == next + 1, "run_workload: link ids out of sync");
      next += 2;
    }
    ensure(next == link_index.num_links(), "run_workload: link count out of sync");
  }
  // Server NIC links: uplink (server -> ToR) then downlink (ToR -> server),
  // both pinned with the ToR.
  const int nic_base = link_index.num_links();
  auto uplink = [&](int server) { return nic_base + 2 * server; };
  auto downlink = [&](int server) { return nic_base + 2 * server + 1; };
  for (int s = 0; s < topo.num_servers(); ++s) {
    sim.add_link(shard_of(topo.server_switch(s)));
    sim.add_link(shard_of(topo.server_switch(s)));
  }

  // Builds the directed link-id chain for one switch path, bracketed by the
  // source uplink and destination downlink.
  auto build_link_path = [&](int src_server, int dst_server,
                             const std::vector<graph::NodeId>& switch_path) {
    std::vector<int> out;
    out.reserve(switch_path.size() + 1);
    out.push_back(uplink(src_server));
    for (std::size_t i = 0; i + 1 < switch_path.size(); ++i) {
      out.push_back(link_index.id(switch_path[i], switch_path[i + 1]));
    }
    out.push_back(downlink(dst_server));
    return out;
  };

  struct ConnRef {
    std::size_t tm_flow;
    int sim_flow;
  };
  std::vector<ConnRef> connections;

  for (std::size_t fi = 0; fi < tm.flows.size(); ++fi) {
    const auto& f = tm.flows[fi];
    const graph::NodeId ssw = topo.server_switch(f.src_server);
    const graph::NodeId dsw = topo.server_switch(f.dst_server);

    const bool local = ssw == dsw;

    // The provider realizes the routing scheme: route() pins one path per
    // flow hash; route_subflow() places multipath subflows (round-robin over
    // the candidate set for KSP, hash-decorrelated walks for ECMP).
    auto pick = [&](int conn, int sub) -> std::vector<graph::NodeId> {
      if (local) return {ssw};
      const std::uint64_t key = flow_key(static_cast<int>(fi), conn, sub);
      auto path = cfg.transport == Transport::kMptcp
                      ? routes.route_subflow(ssw, dsw, key, sub)
                      : routes.route(ssw, dsw, key);
      check(!path.empty(), "run_workload: no route between switches");
      return path;
    };

    if (cfg.transport == Transport::kTcp) {
      for (int c = 0; c < cfg.parallel_connections; ++c) {
        const int id = sim.add_flow(f.src_server, f.dst_server, /*mptcp=*/false,
                                    shard_of(ssw), shard_of(dsw));
        const auto p = pick(c, 0);
        std::vector<graph::NodeId> rev(p.rbegin(), p.rend());
        sim.add_subflow(id, build_link_path(f.src_server, f.dst_server, p),
                        build_link_path(f.dst_server, f.src_server, rev),
                        static_cast<TimeNs>(rng.uniform_index(
                            static_cast<std::uint64_t>(cfg.start_jitter_ns) + 1)));
        connections.push_back({fi, id});
      }
    } else {
      const int id = sim.add_flow(f.src_server, f.dst_server, /*mptcp=*/true,
                                  shard_of(ssw), shard_of(dsw));
      for (int s = 0; s < cfg.subflows; ++s) {
        const auto p = pick(0, s);
        std::vector<graph::NodeId> rev(p.rbegin(), p.rend());
        sim.add_subflow(id, build_link_path(f.src_server, f.dst_server, p),
                        build_link_path(f.dst_server, f.src_server, rev),
                        static_cast<TimeNs>(rng.uniform_index(
                            static_cast<std::uint64_t>(cfg.start_jitter_ns) + 1)));
      }
      connections.push_back({fi, id});
    }
  }

  // Sized transfers (after subflow attachment: the packet total is split
  // across each connection's subflows). A behavioral knob, not a telemetry
  // one — applied identically whether or not a recorder is attached.
  if (cfg.flow_size_bytes > 0) {
    for (const auto& conn : connections) sim.set_flow_size(conn.sim_flow, cfg.flow_size_bytes);
  }

  const TimeNs t_end = cfg.warmup_ns + cfg.measure_ns;
  sim.set_measure_window(cfg.warmup_ns, t_end);
  if (telemetry != nullptr) sim.set_telemetry(telemetry);
  sim.run_until(t_end, budget);
  if (telemetry != nullptr) sim.finalize_telemetry();

  WorkloadResult result;
  result.per_flow.assign(tm.flows.size(), 0.0);
  result.per_server.assign(static_cast<std::size_t>(topo.num_servers()), 0.0);
  for (const auto& conn : connections) {
    const double tput = sim.normalized_goodput(conn.sim_flow);
    result.per_flow[conn.tm_flow] += tput;
    result.per_server[static_cast<std::size_t>(tm.flows[conn.tm_flow].dst_server)] += tput;
  }
  result.mean_flow_throughput = summarize(result.per_flow).mean;
  result.jain_fairness = jain_fairness(result.per_flow);
  result.packet_drops = sim.total_drops();
  for (int fid = 0; fid < sim.num_flows(); ++fid) {
    for (const auto& sf : sim.flow(fid).subflows) result.total_retransmits += sf.retransmits;
  }
  return result;
}

}  // namespace

WorkloadResult run_workload(const topo::Topology& topo, const traffic::TrafficMatrix& tm,
                            const WorkloadConfig& cfg, routing::PathProvider& routes,
                            Rng& rng, parallel::WorkBudget* budget, Telemetry* telemetry) {
  check(!tm.flows.empty(), "run_workload: empty traffic matrix");
  check(cfg.parallel_connections >= 1 && cfg.subflows >= 1, "run_workload: bad connection counts");
  check(cfg.shards >= 1, "run_workload: shards must be >= 1");

  obs::Span span("sim.workload", "sim");
  span.arg("flows", static_cast<std::int64_t>(tm.flows.size()));
  span.arg("shards", cfg.shards);
  if (cfg.shards > 1 && topo.num_switches() > 1) {
    const sharded::ShardPlan plan =
        sharded::build_shard_plan(topo, cfg.shards, rng.fork(kShardPlanStream));
    return run_workload_on(topo, tm, cfg, routes, rng, &plan, budget, telemetry);
  }
  return run_workload_on(topo, tm, cfg, routes, rng, nullptr, budget, telemetry);
}

WorkloadResult run_permutation_workload(const topo::Topology& topo, const WorkloadConfig& cfg,
                                        routing::PathProvider& routes, Rng& rng,
                                        parallel::WorkBudget* budget, Telemetry* telemetry) {
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  return run_workload(topo, tm, cfg, routes, rng, budget, telemetry);
}

}  // namespace jf::sim
