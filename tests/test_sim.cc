// Tests for the packet-level simulator: link/queue mechanics, TCP behavior,
// MPTCP pooling, and conservation properties. Every test drives the engine
// directly with one shard — the single-queue reference run.
#include <gtest/gtest.h>

#include "sim/sharded/sharded_sim.h"

namespace jf::sim {
namespace {

using sharded::ShardedSimulator;

// Builds a minimal two-host dumbbell: host A -> link chain -> host B and the
// reverse chain for ACKs. Returns {data_path, ack_path}.
struct MiniNet {
  ShardedSimulator sim;
  int up, down, rup, rdown;
  explicit MiniNet(SimConfig cfg = {}) : sim(cfg, 1) {
    up = sim.add_link(0);
    down = sim.add_link(0);
    rup = sim.add_link(0);
    rdown = sim.add_link(0);
  }
  int add_tcp_flow(TimeNs start = 0) {
    int f = sim.add_flow(0, 1, /*mptcp=*/false, 0, 0);
    sim.add_subflow(f, {up, down}, {rup, rdown}, start);
    return f;
  }
};

TEST(SimCore, SingleFlowSaturatesNic) {
  MiniNet net;
  int f = net.add_tcp_flow();
  net.sim.set_measure_window(5 * kMillisecond, 25 * kMillisecond);
  net.sim.run_until(25 * kMillisecond);
  EXPECT_GT(net.sim.normalized_goodput(f), 0.90);
  EXPECT_LE(net.sim.normalized_goodput(f), 1.0 + 1e-9);
}

TEST(SimCore, GoodputNeverExceedsLineRate) {
  MiniNet net;
  int f1 = net.add_tcp_flow(0);
  int f2 = net.add_tcp_flow(1000);  // same links: two flows share one NIC path
  net.sim.set_measure_window(5 * kMillisecond, 25 * kMillisecond);
  net.sim.run_until(25 * kMillisecond);
  const double total = net.sim.normalized_goodput(f1) + net.sim.normalized_goodput(f2);
  // A reorder-buffer drain right at the window edge can credit a few
  // pre-window packets into the window; allow that small measurement skew.
  EXPECT_LE(total, 1.03);
  EXPECT_GT(total, 0.85);  // and the pipe stays busy
}

TEST(SimCore, TwoFlowsShareFairly) {
  SimConfig cfg;
  ShardedSimulator sim(cfg, 1);
  // Distinct senders/receivers but one shared bottleneck link.
  int upA = sim.add_link(0), upB = sim.add_link(0);
  int shared = sim.add_link(0);
  int downA = sim.add_link(0), downB = sim.add_link(0);
  int rA1 = sim.add_link(0), rA2 = sim.add_link(0);
  int rB1 = sim.add_link(0), rB2 = sim.add_link(0);
  int f1 = sim.add_flow(0, 2, false, 0, 0);
  sim.add_subflow(f1, {upA, shared, downA}, {rA1, rA2}, 0);
  int f2 = sim.add_flow(1, 3, false, 0, 0);
  sim.add_subflow(f2, {upB, shared, downB}, {rB1, rB2}, 500);
  sim.set_measure_window(10 * kMillisecond, 50 * kMillisecond);
  sim.run_until(50 * kMillisecond);
  const double g1 = sim.normalized_goodput(f1);
  const double g2 = sim.normalized_goodput(f2);
  EXPECT_GT(g1 + g2, 0.85);  // efficient
  // Conserves capacity up to the window-edge skew a reorder-buffer drain at
  // the measurement boundary can credit (see GoodputNeverExceedsLineRate);
  // the hard physical bound is LinkTxNeverExceedsCapacity.
  EXPECT_LE(g1 + g2, 1.01);
  EXPECT_GT(std::min(g1, g2) / std::max(g1, g2), 0.55);  // roughly fair
}

TEST(SimCore, SlowLinkIsBottleneck) {
  SimConfig cfg;
  ShardedSimulator sim(cfg, 1);
  int up = sim.add_link(0);
  int slow =
      sim.add_link(0, cfg.link_rate_bps / 4.0, cfg.link_delay_ns, cfg.queue_capacity_pkts);
  int down = sim.add_link(0);
  int r1 = sim.add_link(0), r2 = sim.add_link(0), r3 = sim.add_link(0);
  int f = sim.add_flow(0, 1, false, 0, 0);
  sim.add_subflow(f, {up, slow, down}, {r1, r2, r3}, 0);
  sim.set_measure_window(5 * kMillisecond, 30 * kMillisecond);
  sim.run_until(30 * kMillisecond);
  EXPECT_NEAR(sim.normalized_goodput(f), 0.25, 0.04);
}

TEST(SimCore, DeliveredBytesMonotoneAndConservative) {
  MiniNet net;
  int f = net.add_tcp_flow();
  net.sim.set_measure_window(1 * kMillisecond, 10 * kMillisecond);
  net.sim.run_until(10 * kMillisecond);
  const auto& fl = net.sim.flow(f);
  const auto& sf = fl.subflows[0];
  // Receiver never delivers more than the sender transmitted.
  EXPECT_LE(fl.delivered_bytes_total,
            sf.packets_sent * net.sim.config().payload_bytes);
  // Everything cumulatively acked was delivered in order.
  EXPECT_GE(fl.delivered_bytes_total,
            static_cast<std::int64_t>(sf.snd_una) * net.sim.config().payload_bytes);
}

TEST(SimCore, MptcpPoolsDisjointPaths) {
  SimConfig cfg;
  ShardedSimulator sim(cfg, 1);
  // Two fully disjoint unit paths between the same pair of hosts, with a
  // per-path sender NIC (models a dual-homed host): MPTCP should pool them.
  int upA = sim.add_link(0), downA = sim.add_link(0);
  int upB = sim.add_link(0), downB = sim.add_link(0);
  int rA1 = sim.add_link(0), rA2 = sim.add_link(0);
  int rB1 = sim.add_link(0), rB2 = sim.add_link(0);
  int f = sim.add_flow(0, 1, /*mptcp=*/true, 0, 0);
  sim.add_subflow(f, {upA, downA}, {rA1, rA2}, 0);
  sim.add_subflow(f, {upB, downB}, {rB1, rB2}, 100);
  sim.set_measure_window(10 * kMillisecond, 40 * kMillisecond);
  sim.run_until(40 * kMillisecond);
  // Pooled goodput across both subflows approaches 2x a single NIC.
  EXPECT_GT(sim.normalized_goodput(f), 1.4);
}

TEST(SimCore, MptcpIsFriendlyToTcpOnSharedBottleneck) {
  SimConfig cfg;
  ShardedSimulator sim(cfg, 1);
  // A 2-subflow MPTCP flow and a plain TCP flow share one bottleneck.
  // LIA coupling should keep MPTCP from taking much more than half.
  int upM = sim.add_link(0), upT = sim.add_link(0);
  int shared = sim.add_link(0);
  int downM = sim.add_link(0), downT = sim.add_link(0);
  int rM1 = sim.add_link(0), rM2 = sim.add_link(0);
  int rT1 = sim.add_link(0), rT2 = sim.add_link(0);
  int fm = sim.add_flow(0, 2, /*mptcp=*/true, 0, 0);
  sim.add_subflow(fm, {upM, shared, downM}, {rM1, rM2}, 0);
  sim.add_subflow(fm, {upM, shared, downM}, {rM1, rM2}, 200);
  int ft = sim.add_flow(1, 3, /*mptcp=*/false, 0, 0);
  sim.add_subflow(ft, {upT, shared, downT}, {rT1, rT2}, 400);
  sim.set_measure_window(10 * kMillisecond, 60 * kMillisecond);
  sim.run_until(60 * kMillisecond);
  const double m = sim.normalized_goodput(fm);
  const double t = sim.normalized_goodput(ft);
  EXPECT_GT(m + t, 0.85);
  // LIA: the MPTCP aggregate should not crush the single TCP flow the way
  // two uncoupled TCP flows (2/3 : 1/3) would.
  EXPECT_GT(t, 0.25);
}

TEST(SimCore, DropsHappenUnderOverload) {
  SimConfig cfg;
  cfg.queue_capacity_pkts = 8;  // tiny queue forces losses
  ShardedSimulator sim(cfg, 1);
  int upA = sim.add_link(0), upB = sim.add_link(0);
  int shared = sim.add_link(0);
  int downA = sim.add_link(0), downB = sim.add_link(0);
  int r1 = sim.add_link(0), r2 = sim.add_link(0), r3 = sim.add_link(0), r4 = sim.add_link(0);
  int f1 = sim.add_flow(0, 2, false, 0, 0);
  sim.add_subflow(f1, {upA, shared, downA}, {r1, r2}, 0);
  int f2 = sim.add_flow(1, 3, false, 0, 0);
  sim.add_subflow(f2, {upB, shared, downB}, {r3, r4}, 100);
  sim.set_measure_window(2 * kMillisecond, 20 * kMillisecond);
  sim.run_until(20 * kMillisecond);
  EXPECT_GT(sim.total_drops(), 0);
  // Retransmissions repaired the losses: goodput stays high.
  EXPECT_GT(sim.normalized_goodput(f1) + sim.normalized_goodput(f2), 0.8);
}

TEST(SimCore, StartTimeDelaysFlow) {
  MiniNet net;
  int f = net.add_tcp_flow(15 * kMillisecond);
  net.sim.set_measure_window(0, 10 * kMillisecond);
  net.sim.run_until(10 * kMillisecond);
  EXPECT_DOUBLE_EQ(net.sim.normalized_goodput(f), 0.0);  // hasn't started
  net.sim.run_until(30 * kMillisecond);
  EXPECT_GT(net.sim.flow(f).delivered_bytes_total, 0);
}

TEST(SimCore, ApiContracts) {
  SimConfig cfg;
  ShardedSimulator sim(cfg, 1);
  EXPECT_THROW(sim.add_link(0, -1.0, 0, 1), std::invalid_argument);
  int f = sim.add_flow(0, 1, false, 0, 0);
  EXPECT_THROW(sim.add_subflow(f, {}, {0}, 0), std::invalid_argument);
  EXPECT_THROW(sim.add_subflow(f, {99}, {0}, 0), std::invalid_argument);
  EXPECT_THROW(sim.set_measure_window(5, 5), std::invalid_argument);
  EXPECT_THROW(sim.flow(42), std::invalid_argument);
}

TEST(SimCore, DeterministicGivenSameSetup) {
  auto run_once = [] {
    MiniNet net;
    int f = net.add_tcp_flow();
    net.sim.set_measure_window(2 * kMillisecond, 12 * kMillisecond);
    net.sim.run_until(12 * kMillisecond);
    return net.sim.flow(f).delivered_bytes_total;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace jf::sim
