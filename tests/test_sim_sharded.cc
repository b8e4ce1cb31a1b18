// Tests for the sharded conservative-lookahead packet-sim engine: exact
// (byte-identical) agreement with the one-shard reference run (a single
// canonical queue) across shard and thread counts, exact work counters, the
// lookahead bound, and the Link-through-config contract.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "eval/serialize.h"
#include "eval/sweep.h"
#include "obs/metrics.h"
#include "sim/sharded/plan.h"
#include "sim/sharded/sharded_sim.h"
#include "sim/workload.h"
#include "topo/fattree.h"
#include "topo/jellyfish.h"

namespace jf::sim {
namespace {

// Full-result equality, field by field and bit by bit (doubles compared
// exactly: the contract is byte-identity, not closeness).
void expect_identical(const WorkloadResult& a, const WorkloadResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.per_flow.size(), b.per_flow.size()) << what;
  for (std::size_t i = 0; i < a.per_flow.size(); ++i) {
    EXPECT_EQ(a.per_flow[i], b.per_flow[i]) << what << " per_flow[" << i << "]";
  }
  ASSERT_EQ(a.per_server.size(), b.per_server.size()) << what;
  for (std::size_t i = 0; i < a.per_server.size(); ++i) {
    EXPECT_EQ(a.per_server[i], b.per_server[i]) << what << " per_server[" << i << "]";
  }
  EXPECT_EQ(a.mean_flow_throughput, b.mean_flow_throughput) << what;
  EXPECT_EQ(a.jain_fairness, b.jain_fairness) << what;
  EXPECT_EQ(a.packet_drops, b.packet_drops) << what;
  EXPECT_EQ(a.total_retransmits, b.total_retransmits) << what;
}

WorkloadResult run_at(const topo::Topology& topo, WorkloadConfig cfg, int shards,
                      int threads, std::uint64_t seed) {
  cfg.shards = shards;
  Rng rng(seed);
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  if (threads <= 1) return run_workload(topo, tm, cfg, rng);
  parallel::WorkBudget budget(threads - 1);
  return run_workload(topo, tm, cfg, rng, &budget);
}

TEST(ShardedSim, MatchesOneShardOnJellyfishTcp) {
  Rng rng(42);
  auto topo = topo::build_jellyfish(
      {.num_switches = 20, .ports_per_switch = 8, .network_degree = 5}, rng);
  WorkloadConfig cfg;
  cfg.routing = {routing::Scheme::kKsp, 4};
  cfg.sim.queue_capacity_pkts = 16;  // force some loss so every path is exercised
  cfg.warmup_ns = 2 * kMillisecond;
  cfg.measure_ns = 6 * kMillisecond;

  const WorkloadResult reference = run_at(topo, cfg, /*shards=*/1, /*threads=*/1, 7);
  EXPECT_GT(reference.mean_flow_throughput, 0.0);
  for (int shards : {2, 8}) {
    for (int threads : {1, 4}) {
      expect_identical(reference, run_at(topo, cfg, shards, threads, 7),
                       "jellyfish shards=" + std::to_string(shards) +
                           " threads=" + std::to_string(threads));
    }
  }
}

TEST(ShardedSim, MatchesOneShardOnFattreeMptcp) {
  auto topo = topo::build_fattree(4);
  WorkloadConfig cfg;
  cfg.routing = {routing::Scheme::kEcmp, 8};
  cfg.transport = Transport::kMptcp;
  cfg.subflows = 4;
  cfg.warmup_ns = 2 * kMillisecond;
  cfg.measure_ns = 6 * kMillisecond;

  const WorkloadResult reference = run_at(topo, cfg, /*shards=*/1, /*threads=*/1, 11);
  EXPECT_GT(reference.mean_flow_throughput, 0.0);
  for (int shards : {2, 8}) {
    for (int threads : {1, 4}) {
      expect_identical(reference, run_at(topo, cfg, shards, threads, 11),
                       "fattree shards=" + std::to_string(shards) +
                           " threads=" + std::to_string(threads));
    }
  }
}

// The engine's work counters are exact at every shard count, one shard
// included: events processed do not depend on the partition, a single shard
// hands nothing off, and with no cut link its whole run is one round.
TEST(ShardedSim, WorkCountersExactAtOneShard) {
  Rng rng(42);
  auto topo = topo::build_jellyfish(
      {.num_switches = 12, .ports_per_switch = 8, .network_degree = 5}, rng);
  WorkloadConfig cfg;
  cfg.routing = {routing::Scheme::kKsp, 4};
  cfg.warmup_ns = 2 * kMillisecond;
  cfg.measure_ns = 4 * kMillisecond;

  obs::set_metrics_enabled(true);
  auto counters_at = [&](int shards) {
    obs::reset_metrics();
    (void)run_at(topo, cfg, shards, /*threads=*/1, 3);
    return obs::collect_metrics();
  };
  const obs::MetricsSnapshot one = counters_at(1);
  const std::int64_t events = one.counter_value("sim.events");
  EXPECT_GT(events, 0);
  EXPECT_EQ(one.counter_value("sim.handoffs"), 0);
  EXPECT_EQ(one.counter_value("sim.rounds"), 1);
  EXPECT_EQ(one.counter_value("sim.runs"), 1);
  for (int shards : {2, 8}) {
    const obs::MetricsSnapshot many = counters_at(shards);
    EXPECT_EQ(many.counter_value("sim.events"), events) << "shards=" << shards;
    EXPECT_GT(many.counter_value("sim.handoffs"), 0) << "shards=" << shards;
  }
  obs::reset_metrics();
  obs::set_metrics_enabled(false);
}

// sim.barrier_wait_ns takes one sample per worker slot per round: the
// round's wall time minus the busy time of the shards that slot ran. With
// more shards than slots, one sample per shard would count a slot's time on
// its other shards as waiting.
TEST(ShardedSim, BarrierWaitIsRecordedPerWorkerSlot) {
  Rng rng(42);
  auto topo = topo::build_jellyfish(
      {.num_switches = 12, .ports_per_switch = 8, .network_degree = 5}, rng);
  WorkloadConfig cfg;
  cfg.routing = {routing::Scheme::kKsp, 4};
  cfg.warmup_ns = 1 * kMillisecond;
  cfg.measure_ns = 2 * kMillisecond;

  obs::set_metrics_enabled(true);
  const std::pair<int, int> runs[] = {{3, 2}, {8, 1}};  // (shards, threads)
  for (const auto& [shards, threads] : runs) {
    obs::reset_metrics();
    (void)run_at(topo, cfg, shards, threads, 3);
    const obs::MetricsSnapshot snap = obs::collect_metrics();
    const obs::DistributionSnapshot* wait = snap.find_distribution("sim.barrier_wait_ns");
    ASSERT_NE(wait, nullptr);
    EXPECT_GT(snap.counter_value("sim.rounds"), 1);
    EXPECT_EQ(wait->count, threads * snap.counter_value("sim.rounds"))
        << "shards=" << shards << " threads=" << threads;
  }
  obs::reset_metrics();
  obs::set_metrics_enabled(false);
}

// --- goldens ---
//
// Every other test here compares a shard count against the one-shard run,
// and both sides pop through the same event queue: a queue that broke the
// canonical (time, EventOrder) order the same way at every shard count
// would pass them all. These pin exact results, recorded as hex-float
// literals from the binary-heap queue that defined the canonical order, at
// several shard counts (three shards on two workers: one worker runs two
// shards per round).

struct SimGolden {
  double mean_flow_throughput;
  double jain_fairness;
  std::int64_t packet_drops;
  std::int64_t total_retransmits;
  std::int64_t events;
};

void expect_sim_golden(const topo::Topology& topo, const WorkloadConfig& cfg,
                       std::uint64_t seed, const SimGolden& want) {
  const std::pair<int, int> runs[] = {{1, 1}, {3, 2}, {8, 4}};  // (shards, threads)
  obs::set_metrics_enabled(true);
  for (const auto& [shards, threads] : runs) {
    SCOPED_TRACE("shards=" + std::to_string(shards) + " threads=" + std::to_string(threads));
    obs::reset_metrics();
    const WorkloadResult got = run_at(topo, cfg, shards, threads, seed);
    EXPECT_EQ(got.mean_flow_throughput, want.mean_flow_throughput)
        << std::hexfloat << got.mean_flow_throughput;
    EXPECT_EQ(got.jain_fairness, want.jain_fairness) << std::hexfloat << got.jain_fairness;
    EXPECT_EQ(got.packet_drops, want.packet_drops);
    EXPECT_EQ(got.total_retransmits, want.total_retransmits);
    EXPECT_EQ(obs::collect_metrics().counter_value("sim.events"), want.events);
  }
  obs::reset_metrics();
  obs::set_metrics_enabled(false);
}

TEST(SimGolden, FatTreeK4Mptcp) {
  auto topo = topo::build_fattree(4);
  WorkloadConfig cfg;
  cfg.routing = {routing::Scheme::kEcmp, 8};
  cfg.transport = Transport::kMptcp;
  cfg.subflows = 4;
  cfg.sim.queue_capacity_pkts = 16;
  cfg.warmup_ns = 2 * kMillisecond;
  cfg.measure_ns = 6 * kMillisecond;
  expect_sim_golden(topo, cfg, 11,
                    {0x1.80f5c28f5c28fp-1, 0x1.eeb6ef6f642ccp-1, 783, 609, 168933});
}

TEST(SimGolden, JellyfishTcp) {
  Rng rng(42);
  auto topo = topo::build_jellyfish(
      {.num_switches = 20, .ports_per_switch = 8, .network_degree = 5}, rng);
  WorkloadConfig cfg;
  cfg.routing = {routing::Scheme::kKsp, 4};
  cfg.sim.queue_capacity_pkts = 16;
  cfg.warmup_ns = 2 * kMillisecond;
  cfg.measure_ns = 6 * kMillisecond;
  expect_sim_golden(topo, cfg, 7,
                    {0x1.83b874df5e584p-2, 0x1.70b160710b798p-1, 1420, 985, 247925});
}

// Hand-built dumbbell. With two shards, shard 0 owns host A's side (uplink
// and the forward cross link) and shard 1 owns host B's side; with one shard
// it is the single-queue twin, with identical link ids and parameters.
// Returns the engine ready to run; `cross_delay` is the delay of both cross
// links.
struct DumbbellNet {
  sharded::ShardedSimulator sim;
  int flow;
  DumbbellNet(SimConfig cfg, TimeNs cross_delay, int shards) : sim(cfg, shards) {
    const int a = 0, b = shards - 1;
    const int up = sim.add_link(a);
    const int x = sim.add_link(a, cfg.link_rate_bps, cross_delay, cfg.queue_capacity_pkts);
    const int down = sim.add_link(b);
    const int rup = sim.add_link(b);
    const int rx = sim.add_link(b, cfg.link_rate_bps, cross_delay, cfg.queue_capacity_pkts);
    const int rdown = sim.add_link(a);
    flow = sim.add_flow(0, 1, /*mptcp=*/false, /*src_shard=*/a, /*dst_shard=*/b);
    sim.add_subflow(flow, {up, x, down}, {rup, rx, rdown}, 0);
  }
};

TEST(ShardedSim, LookaheadBoundedByCutDelayButNeverReorders) {
  SimConfig cfg;
  const TimeNs t_end = 20 * kMillisecond;

  std::int64_t rounds_short = 0, rounds_long = 0;
  for (const TimeNs cross : {2 * kMicrosecond, 30 * kMicrosecond}) {
    DumbbellNet net(cfg, cross, /*shards=*/2);
    DumbbellNet twin(cfg, cross, /*shards=*/1);
    net.sim.set_measure_window(2 * kMillisecond, t_end);
    twin.sim.set_measure_window(2 * kMillisecond, t_end);
    net.sim.run_until(t_end);
    twin.sim.run_until(t_end);

    // The round bound is exactly the smallest cross-shard latency: here the
    // cut links' delay (the loss-feedback floor, 50us, is larger).
    EXPECT_EQ(net.sim.lookahead_ns(), std::min<TimeNs>(cross, cfg.loss_feedback_floor_ns));
    // Each round advances the global clock by at least the lookahead (it may
    // jump further across idle gaps), so a busy 20 ms run at L = 30 us needs
    // hundreds of rounds — and never more than t_end / L + 1 when every
    // window has work.
    EXPECT_GE(net.sim.rounds(), 300);
    EXPECT_LE(net.sim.rounds(), t_end / net.sim.lookahead_ns() + 1);
    // One shard cuts nothing: the whole run is one round over one queue.
    EXPECT_EQ(twin.sim.lookahead_ns(), sharded::ShardedSimulator::kMaxTime);
    EXPECT_EQ(twin.sim.rounds(), 1);

    // And regardless of round granularity, arrivals were never reordered:
    // the two-shard run reproduces the one-shard twin bit for bit.
    EXPECT_EQ(net.sim.flow(net.flow).delivered_bytes_total,
              twin.sim.flow(twin.flow).delivered_bytes_total);
    EXPECT_EQ(net.sim.flow(net.flow).delivered_bytes_measured,
              twin.sim.flow(twin.flow).delivered_bytes_measured);
    EXPECT_EQ(net.sim.total_drops(), twin.sim.total_drops());
    for (int l = 0; l < 6; ++l) {
      EXPECT_EQ(net.sim.link(l).tx_packets, twin.sim.link(l).tx_packets) << "link " << l;
      EXPECT_EQ(net.sim.link(l).tx_bytes, twin.sim.link(l).tx_bytes) << "link " << l;
    }
    (cross == 2 * kMicrosecond ? rounds_short : rounds_long) = net.sim.rounds();
  }
  // A cut link with minimal delay forces short rounds: 15x less lookahead
  // must cost substantially more rounds over the same simulated time.
  EXPECT_GT(rounds_short, 2 * rounds_long);
}

TEST(ShardedSim, ZeroLatencyCutIsRejected) {
  SimConfig cfg;
  DumbbellNet net(cfg, /*cross_delay=*/0, /*shards=*/2);
  EXPECT_THROW(net.sim.run_until(kMillisecond), std::invalid_argument);
}

TEST(ShardedSim, MisplacedFirstLinkIsRejected) {
  SimConfig cfg;
  sharded::ShardedSimulator sim(cfg, 2);
  const int up = sim.add_link(1);  // sender's first link in the wrong shard
  const int down = sim.add_link(1);
  const int rup = sim.add_link(1);
  const int rdown = sim.add_link(0);
  const int f = sim.add_flow(0, 1, false, /*src_shard=*/0, /*dst_shard=*/1);
  sim.add_subflow(f, {up, down}, {rup, rdown}, 0);
  EXPECT_THROW(sim.run_until(kMillisecond), std::invalid_argument);
}

TEST(ShardedSim, LinkParametersAlwaysComeFromConfig) {
  // The Link struct carries no defaults of its own: add_link() must inherit
  // exactly the engine's SimConfig (a stray hard-coded default diverging
  // from the config was possible before Link lost its member initializers).
  SimConfig cfg;
  cfg.link_rate_bps = 3e8;
  cfg.link_delay_ns = 1234;
  cfg.queue_capacity_pkts = 9;

  sharded::ShardedSimulator sharded(cfg, 2);
  const int hl = sharded.add_link(1);
  EXPECT_EQ(sharded.link(hl).rate_bps, cfg.link_rate_bps);
  EXPECT_EQ(sharded.link(hl).delay_ns, cfg.link_delay_ns);
  EXPECT_EQ(sharded.link(hl).queue_capacity, cfg.queue_capacity_pkts);
  EXPECT_EQ(sharded.link_shard(hl), 1);
}

TEST(ShardedSim, ShardPlanIsBalancedAndPinsServersWithToR) {
  Rng rng(5);
  auto topo = topo::build_jellyfish(
      {.num_switches = 16, .ports_per_switch = 8, .network_degree = 5}, rng);
  auto plan = sharded::build_shard_plan(topo, 4, Rng(99));
  ASSERT_EQ(plan.num_shards, 4);
  ASSERT_EQ(plan.switch_shard.size(), 16u);
  std::vector<int> sizes(4, 0);
  for (int s : plan.switch_shard) ++sizes[static_cast<std::size_t>(s)];
  for (int s : sizes) EXPECT_EQ(s, 4);
  // More shards than switches clamps.
  EXPECT_EQ(sharded::build_shard_plan(topo, 99, Rng(1)).num_shards, 16);
}

// Acceptance gate: every shipped packet-sim scenario is byte-identical
// across shards {1, 2, 8} x threads {1, 4} end to end through the engine
// (traffic sampling, routing providers, borrowed budgets, report assembly).
TEST(ShardedSim, ShippedSimScenarioByteIdenticalAcrossShardsAndThreads) {
  auto spec = eval::load_sweep_file(JF_SCENARIO_DIR "/sim_smoke.json");
  auto render = [&](int shards, int threads) {
    auto run = spec;
    run.base.sim.shards = shards;
    auto report = eval::run_sweep(run, {.threads = threads});
    return eval::sweep_report_to_json(report).dump(2);
  };
  const std::string reference = render(1, 1);
  EXPECT_FALSE(reference.empty());
  for (int shards : {2, 8}) {
    for (int threads : {1, 4}) {
      EXPECT_EQ(reference, render(shards, threads))
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace jf::sim
