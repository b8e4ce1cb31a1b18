// Deterministic data-plane telemetry for the packet simulator.
//
// Two views of one run, both keyed purely by simulated time (never wall
// clock, so recordings are detlint-clean and byte-identical across shard
// counts):
//
//   * per-flow records — start/finish simulated time, bytes acked,
//     retransmits, timeouts, data-packet drops on the path, hop count —
//     from which flow completion time (FCT) and per-flow throughput derive;
//   * per-link epoch series — tx counts, drop counts, a log2 queue-depth
//     histogram, and a utilization figure per fixed simulated-time epoch.
//
// The Telemetry object is strictly observational: the engine's shards call
// its hooks from their event handlers, and the hooks mutate only telemetry
// state — no events are created, no per-entity emission counters advance,
// no RNG draws happen. A run with telemetry attached is therefore bit-identical
// to the same run without it.
//
// Sharded-engine safety: one Telemetry instance is shared by every shard.
// attach() pre-sizes the per-link and per-flow tables, and each slot is
// only ever written by the handlers of the entity's owning shard (a link's
// hooks fire in the shard that owns the link; a flow's hooks fire at its
// sender endpoint) — the same single-writer discipline that makes the
// engine itself race-free. Per-link epoch vectors grow on demand, but
// only from their single writer. finalize() runs once, single-threaded,
// after the run; it merges nothing across shards because nothing needs
// merging — slots are globally indexed, so runs at every shard count fill
// the identical structure in canonical link/flow order.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/core.h"

namespace jf::sim {

struct TelemetryConfig {
  // Epoch length of the per-link series. Epoch e covers simulated time
  // [e*epoch_ns, (e+1)*epoch_ns); the final epoch is truncated at t_end
  // (and may be empty when t_end is an exact multiple of epoch_ns — events
  // stamped exactly t_end land in it).
  TimeNs epoch_ns = 5 * kMillisecond;
};

// log2 queue-depth histogram buckets: bucket b counts enqueue samples whose
// post-enqueue depth d satisfies bit_width(d) == b, i.e. [2^(b-1), 2^b),
// with the last bucket absorbing everything deeper.
inline constexpr int kQueueDepthBuckets = 8;

// One flow's lifetime. finish_ns/completed come from the transport layer's
// completion hook (sized flows only); everything else is derived from the
// engine's flow table at finalize(). Backlogged flows report finish_ns ==
// t_end with completed == false, so fct is "time observed" for them.
struct FlowRecord {
  int src_server = -1;
  int dst_server = -1;
  TimeNs start_ns = 0;   // earliest subflow start_time
  TimeNs finish_ns = 0;  // completion time, or t_end if never completed
  bool completed = false;
  std::int64_t bytes_acked = 0;  // cumulatively acked payload across subflows
  std::int64_t packets_sent = 0;
  std::int64_t retransmits = 0;
  std::int64_t timeouts = 0;
  // Data packets of this flow dropped anywhere on its paths (attributed at
  // the sender via the oracle-SACK loss notification, which exists per
  // dropped data packet; ACK drops are not notified and not counted).
  std::int64_t path_drops = 0;
  int hop_count = 0;  // links on the shortest subflow data path

  bool operator==(const FlowRecord&) const = default;
};

// Flow completion time in seconds (observed time for backlogged flows).
inline double fct_seconds(const FlowRecord& f) {
  return static_cast<double>(f.finish_ns - f.start_ns) / 1e9;
}

struct LinkEpoch {
  std::int64_t tx_packets = 0;
  std::int64_t tx_bytes = 0;
  std::int64_t drops = 0;
  std::array<std::int64_t, kQueueDepthBuckets> queue_hist{};
  // Fraction of the epoch the link spent serializing bits: tx_bytes over
  // the epoch's capacity, clamped to [0, 1] (a transmission completing just
  // after the boundary books its bytes into the epoch it completes in, so
  // raw ratios can overshoot slightly). Filled by finalize().
  double utilization = 0.0;

  bool operator==(const LinkEpoch&) const = default;
};

struct LinkSeries {
  double rate_bps = 0.0;
  std::vector<LinkEpoch> epochs;

  bool operator==(const LinkSeries&) const = default;
};

// Whole-run utilization of one link (clamped to [0, 1]).
inline double link_run_utilization(const LinkSeries& s, TimeNs t_end) {
  if (t_end <= 0 || s.rate_bps <= 0.0) return 0.0;
  std::int64_t bytes = 0;
  for (const auto& e : s.epochs) bytes += e.tx_bytes;
  const double u =
      static_cast<double>(bytes) * 8.0 * 1e9 / (s.rate_bps * static_cast<double>(t_end));
  return u < 0.0 ? 0.0 : (u > 1.0 ? 1.0 : u);
}

// The full recording of one run. Flows and links are indexed exactly like
// the engine's tables, so the layout is engine-independent by construction.
struct TelemetryDataset {
  TimeNs epoch_ns = 0;
  TimeNs t_end_ns = 0;
  std::vector<FlowRecord> flows;
  std::vector<LinkSeries> links;

  bool operator==(const TelemetryDataset&) const = default;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig cfg);

  // Pre-sizes the per-link/per-flow tables; the engine calls this from
  // set_telemetry(), after every link and flow exists. Hooks on slots
  // outside these bounds are a bug (checked).
  void attach(std::size_t num_links, std::size_t num_flows);

  // --- hot-path hooks (called from event handlers; single writer per slot) ---

  // A packet entered `link`'s queue; depth_after is the queue depth
  // including the new packet (>= 1).
  void on_enqueue(int link, TimeNs now, int depth_after);
  // `link`'s drop-tail queue rejected a packet.
  void on_drop(int link, TimeNs now);
  // `link` finished serializing a packet of `bytes` bytes.
  void on_transmit(int link, TimeNs now, int bytes);
  // A data packet of `flow` was reported lost to its sender.
  void on_flow_drop(int flow);
  // All of `flow`'s sized subflows are fully acked. Idempotent: only the
  // first call records the completion time.
  void on_flow_complete(int flow, TimeNs now);

  // --- post-run ---

  // Derives the flow records from the engine's tables, pads every link
  // series to the run's epoch count, and computes utilizations. Called
  // exactly once, single-threaded, with t_end == the run's end time.
  void finalize(const SimConfig& cfg, const std::vector<Link>& links,
                const std::vector<Flow>& flows, TimeNs t_end);

  bool finalized() const { return finalized_; }
  const TelemetryDataset& dataset() const;
  TelemetryDataset take_dataset();

 private:
  LinkEpoch& epoch_slot(int link, TimeNs now);

  // Each link's current epoch, [begin, end), and its index: a hook inside
  // it skips the division. Single writer per slot, like the link's series.
  struct EpochCursor {
    TimeNs begin = 0;
    TimeNs end = 0;
    std::size_t index = 0;
  };

  TelemetryConfig cfg_;
  std::vector<EpochCursor> cursors_;
  bool attached_ = false;
  bool finalized_ = false;
  TelemetryDataset data_;
};

// --- dataset summaries (metrics, [stats] lines) ---

// FCT of every flow, in seconds, in flow order.
std::vector<double> flow_completion_seconds(const TelemetryDataset& d);

// Highest whole-run utilization over all links (0 when there are none).
double worst_link_utilization(const TelemetryDataset& d);

}  // namespace jf::sim
