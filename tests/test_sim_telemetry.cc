// Tests for the data-plane telemetry layer: epoch-boundary bookkeeping of
// the per-link series, the observational contract (telemetry on vs off
// leaves the WorkloadResult bit-identical), byte-identical datasets across
// shard and thread counts, sized-flow
// completion records, and byte-identical telemetry dumps.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "eval/serialize.h"
#include "sim/telemetry.h"
#include "sim/workload.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

namespace jf::sim {
namespace {

// --- direct hook tests: one hand-built link, no engine ---

std::vector<Link> one_link(const SimConfig& cfg) {
  return {Link(cfg.link_rate_bps, cfg.link_delay_ns, cfg.queue_capacity_pkts)};
}

TEST(Telemetry, EpochBoundariesAndTrailingEpoch) {
  SimConfig cfg;
  cfg.link_rate_bps = 8e9;  // 1 byte per ns: epoch capacity = epoch_ns bytes
  auto links = one_link(cfg);
  Telemetry rec(TelemetryConfig{.epoch_ns = 1000});
  rec.attach(links.size(), 0);

  rec.on_transmit(0, /*now=*/0, /*bytes=*/100);     // epoch 0: [0, 1000)
  rec.on_transmit(0, /*now=*/999, /*bytes=*/100);   // still epoch 0
  rec.on_transmit(0, /*now=*/1000, /*bytes=*/100);  // exactly on the boundary: epoch 1
  rec.on_transmit(0, /*now=*/3000, /*bytes=*/100);  // exactly t_end: trailing epoch

  // t_end an exact multiple of epoch_ns: the trailing epoch covers only the
  // boundary instant, so num_epochs = t_end / epoch_ns + 1.
  rec.finalize(cfg, links, {}, /*t_end=*/3000);
  const auto& s = rec.dataset().links.at(0);
  ASSERT_EQ(s.epochs.size(), 4u);
  EXPECT_EQ(s.epochs[0].tx_packets, 2);
  EXPECT_EQ(s.epochs[0].tx_bytes, 200);
  EXPECT_EQ(s.epochs[1].tx_packets, 1);
  EXPECT_EQ(s.epochs[2].tx_packets, 0);  // padded, never touched
  EXPECT_EQ(s.epochs[3].tx_packets, 1);
  EXPECT_DOUBLE_EQ(s.rate_bps, cfg.link_rate_bps);
}

TEST(Telemetry, UtilizationClampAndTruncatedEpoch) {
  SimConfig cfg;
  cfg.link_rate_bps = 8e9;  // 1 byte per ns
  auto links = one_link(cfg);
  Telemetry rec(TelemetryConfig{.epoch_ns = 1000});
  rec.attach(links.size(), 0);

  // Epoch 0 books double its 1000-byte capacity (a transmission completing
  // just past the boundary books into the epoch it completes in): clamped.
  rec.on_transmit(0, 500, 2000);
  // Epoch 2 is truncated at t_end = 2500 to [2000, 2500) = 500 bytes capacity.
  rec.on_transmit(0, 2250, 250);

  rec.finalize(cfg, links, {}, /*t_end=*/2500);
  const auto& s = rec.dataset().links.at(0);
  ASSERT_EQ(s.epochs.size(), 3u);
  EXPECT_DOUBLE_EQ(s.epochs[0].utilization, 1.0);
  EXPECT_DOUBLE_EQ(s.epochs[1].utilization, 0.0);
  EXPECT_DOUBLE_EQ(s.epochs[2].utilization, 0.5);
  // Whole-run utilization integrates all epochs over t_end: 2250 bytes in
  // 2500 ns at 1 byte/ns.
  EXPECT_DOUBLE_EQ(link_run_utilization(s, 2500), 0.9);
}

TEST(Telemetry, QueueDepthHistogramBuckets) {
  SimConfig cfg;
  auto links = one_link(cfg);
  Telemetry rec(TelemetryConfig{.epoch_ns = 1000});
  rec.attach(links.size(), 0);

  // bucket b counts samples with bit_width(depth) == b; last bucket absorbs
  // everything deeper.
  rec.on_enqueue(0, 0, 1);        // bit_width 1
  rec.on_enqueue(0, 0, 2);        // bit_width 2
  rec.on_enqueue(0, 0, 3);        // bit_width 2
  rec.on_enqueue(0, 0, 4);        // bit_width 3
  rec.on_enqueue(0, 0, 127);      // bit_width 7
  rec.on_enqueue(0, 0, 1 << 20);  // clamped into the last bucket

  rec.finalize(cfg, links, {}, /*t_end=*/1);
  const auto& h = rec.dataset().links.at(0).epochs.at(0).queue_hist;
  EXPECT_EQ(h[1], 1);
  EXPECT_EQ(h[2], 2);
  EXPECT_EQ(h[3], 1);
  EXPECT_EQ(h[7], 2);  // 127 and the deep sample share the absorbing bucket
}

TEST(Telemetry, FlowCompletionIsIdempotent) {
  SimConfig cfg;
  auto links = one_link(cfg);
  Telemetry rec(TelemetryConfig{.epoch_ns = 1000});
  rec.attach(links.size(), 1);

  Flow f;
  f.src_server = 0;
  f.dst_server = 1;
  f.subflows.push_back(make_subflow(links, cfg, {0}, {0}, /*start_time=*/100));

  rec.on_flow_complete(0, 700);
  rec.on_flow_complete(0, 900);  // late duplicate must not move the record

  rec.finalize(cfg, links, {f}, /*t_end=*/2000);
  const auto& r = rec.dataset().flows.at(0);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.start_ns, 100);
  EXPECT_EQ(r.finish_ns, 700);
  EXPECT_DOUBLE_EQ(fct_seconds(r), 600e-9);
}

// --- workload-level tests: real runs on a small jellyfish ---

struct Fixture {
  topo::Topology topo;
  traffic::TrafficMatrix tm;
  WorkloadConfig cfg;
};

Fixture make_fixture(std::int64_t flow_size_bytes) {
  Rng rng(42);
  Fixture fx{.topo = topo::build_jellyfish(
                 {.num_switches = 16, .ports_per_switch = 8, .network_degree = 5}, rng),
             .tm = {},
             .cfg = {}};
  fx.tm = traffic::random_permutation(fx.topo.num_servers(), rng);
  fx.cfg.sim.queue_capacity_pkts = 16;  // force some loss so drops are recorded
  fx.cfg.warmup_ns = 2 * kMillisecond;
  fx.cfg.measure_ns = 6 * kMillisecond;
  fx.cfg.telemetry_epoch_ns = 1 * kMillisecond;
  fx.cfg.flow_size_bytes = flow_size_bytes;
  return fx;
}

WorkloadResult run_at(const Fixture& fx, int shards, int threads, Telemetry* rec) {
  WorkloadConfig cfg = fx.cfg;
  cfg.shards = shards;
  Rng rng(7);
  auto routes = routing::make_path_provider(fx.topo.switches(), {"ksp", 4});
  if (threads <= 1) return run_workload(fx.topo, fx.tm, cfg, *routes, rng, nullptr, rec);
  parallel::WorkBudget budget(threads - 1);
  return run_workload(fx.topo, fx.tm, cfg, *routes, rng, &budget, rec);
}

// Recording is observational: the result with telemetry attached is
// bit-identical to the result without, at one shard and at eight.
TEST(Telemetry, AttachingRecorderDoesNotChangeTheRun) {
  const Fixture fx = make_fixture(0);
  for (int shards : {1, 8}) {
    const WorkloadResult bare = run_at(fx, shards, 1, nullptr);
    Telemetry rec(TelemetryConfig{fx.cfg.telemetry_epoch_ns});
    const WorkloadResult observed = run_at(fx, shards, 1, &rec);
    EXPECT_EQ(bare.per_flow, observed.per_flow) << "shards " << shards;
    EXPECT_EQ(bare.per_server, observed.per_server) << "shards " << shards;
    EXPECT_EQ(bare.mean_flow_throughput, observed.mean_flow_throughput);
    EXPECT_EQ(bare.jain_fairness, observed.jain_fairness);
    EXPECT_EQ(bare.packet_drops, observed.packet_drops) << "shards " << shards;
    EXPECT_EQ(bare.total_retransmits, observed.total_retransmits) << "shards " << shards;
    EXPECT_TRUE(rec.finalized());
    EXPECT_FALSE(rec.dataset().flows.empty());
  }
}

// The tentpole contract: every (threads, shards) combination records a
// dataset byte-identical to the one-shard reference run's.
TEST(Telemetry, DatasetIsByteIdenticalAcrossShards) {
  const Fixture fx = make_fixture(0);

  Telemetry ref_rec(TelemetryConfig{fx.cfg.telemetry_epoch_ns});
  run_at(fx, /*shards=*/1, /*threads=*/1, &ref_rec);
  const TelemetryDataset reference = ref_rec.take_dataset();
  ASSERT_FALSE(reference.flows.empty());
  ASSERT_FALSE(reference.links.empty());

  const std::string ref_json =
      eval::telemetry_dump_to_json(
          eval::TelemetryDump{.name = "grid",
                              .points = {{.label = "p",
                                          .cells = {{{.topology = 0,
                                                      .routing = 0,
                                                      .seed = 7,
                                                      .sample = 0,
                                                      .data = reference}}}}}})
          .dump();

  for (int threads : {1, 4}) {
    for (int shards : {1, 8}) {
      Telemetry rec(TelemetryConfig{fx.cfg.telemetry_epoch_ns});
      run_at(fx, shards, threads, &rec);
      EXPECT_TRUE(rec.dataset() == reference)
          << "threads " << threads << " shards " << shards;
      // And the serialized form (what --telemetry-out writes) is
      // byte-identical too.
      const std::string got =
          eval::telemetry_dump_to_json(
              eval::TelemetryDump{.name = "grid",
                                  .points = {{.label = "p",
                                              .cells = {{{.topology = 0,
                                                          .routing = 0,
                                                          .seed = 7,
                                                          .sample = 0,
                                                          .data = rec.take_dataset()}}}}}})
              .dump();
      EXPECT_EQ(got, ref_json) << "threads " << threads << " shards " << shards;
    }
  }
}

// Sized flows complete and report true FCTs: finish before t_end, all bytes
// acked, and the same records at one shard and at eight.
TEST(Telemetry, SizedFlowsRecordCompletion) {
  Fixture fx = make_fixture(/*flow_size_bytes=*/30'000);  // 20 packets
  // Deep queues: this test is about completion records, not loss recovery —
  // a 16-deep queue can stall one unlucky flow past the end of the run.
  fx.cfg.sim.queue_capacity_pkts = 64;

  Telemetry one_shard_rec(TelemetryConfig{fx.cfg.telemetry_epoch_ns});
  run_at(fx, /*shards=*/1, /*threads=*/1, &one_shard_rec);
  const TelemetryDataset& d = one_shard_rec.dataset();
  ASSERT_FALSE(d.flows.empty());
  for (std::size_t i = 0; i < d.flows.size(); ++i) {
    const FlowRecord& f = d.flows[i];
    EXPECT_TRUE(f.completed) << "flow " << i;
    EXPECT_GT(f.finish_ns, f.start_ns) << "flow " << i;
    EXPECT_LT(f.finish_ns, d.t_end_ns) << "flow " << i;
    EXPECT_GE(f.bytes_acked, 30'000) << "flow " << i;
    EXPECT_GT(f.hop_count, 0) << "flow " << i;
    EXPECT_GT(fct_seconds(f), 0.0) << "flow " << i;
  }

  Telemetry sharded_rec(TelemetryConfig{fx.cfg.telemetry_epoch_ns});
  run_at(fx, /*shards=*/8, /*threads=*/4, &sharded_rec);
  EXPECT_TRUE(sharded_rec.dataset() == d);
}

}  // namespace
}  // namespace jf::sim
