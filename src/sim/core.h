// Shared state types for the packet-level simulator.
//
// One engine executes the simulation: sim::sharded::ShardedSimulator, with
// one event queue per link shard (sim/event_queue.h, a calendar queue)
// advanced in conservative-lookahead rounds.
// Every shard is a thin driver around the same link mechanics
// (sim/event_loop.h) and the same transport state machines
// (sim/transport_ops.h), operating on the types defined here — which is
// what makes results bit-identical at any shard count. With one shard the
// run is a single canonical queue: the reference every partition matches.
//
// Determinism contract. Events are processed in (time, order) order, where
// `order` is NOT a global arrival counter (that would encode the scheduler's
// interleaving and could never be reproduced by a parallel engine). Instead
// every event carries the identity of the entity whose state machine emitted
// it — a link starting a transmission, a subflow arming a timer — plus that
// entity's own emission count. Each entity's event sequence is a pure
// function of the simulation's pre-shard global state: every partition
// drives every entity through the same handler sequence, so it assigns
// identical keys, sorts identically, and produces identical results at any
// shard or worker count.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "common/check.h"

namespace jf::sim {

using TimeNs = std::int64_t;

inline constexpr TimeNs kMicrosecond = 1'000;
inline constexpr TimeNs kMillisecond = 1'000'000;

struct SimConfig {
  double link_rate_bps = 1e9;       // every link, including server NICs
  TimeNs link_delay_ns = 5'000;     // propagation + switching latency per hop
  // Queue depth and min RTO are coupled: the worst-case per-path queueing
  // delay (hops * depth * serialization) must stay below min_rto or senders
  // take spurious timeouts. 64 packets at 1 Gbps drains in 0.77 ms.
  int queue_capacity_pkts = 64;
  int payload_bytes = 1500;         // data packet size (MTU-sized, headers folded in)
  int ack_bytes = 40;
  double initial_cwnd_pkts = 2.0;
  TimeNs min_rto_ns = 8 * kMillisecond;
  TimeNs initial_rto_ns = 16 * kMillisecond;
  TimeNs max_rto_ns = 128 * kMillisecond;
  // Minimum latency of loss feedback (oracle-SACK notification); the
  // effective delay is max(this, packet's one-way delay so far + the
  // uncongested ACK-path return time) ~ the lost packet's round trip.
  TimeNs loss_feedback_floor_ns = 50 * kMicrosecond;
};

// A packet in flight. Packets are source-routed: `hop` indexes into the
// owning subflow's data or ACK path.
struct Packet {
  std::int32_t flow = -1;
  std::int16_t subflow = 0;
  std::int16_t hop = 0;
  bool is_ack = false;
  std::int32_t seq = 0;       // packet-number sequence space
  std::int32_t size_bytes = 0;
  TimeNs ts = 0;              // sender timestamp, echoed in ACKs for RTT
};

// One TCP (sub)connection: sender and receiver state plus its pinned paths.
//
// The sender fields (cwnd through retransmits, and order_seq) are mutated
// only by handlers running at the flow's source endpoint; the receiver
// fields (rcv_next, ooo) only at the destination endpoint. The sharded
// engine relies on that split: the two endpoints may live in different
// shards, and fields of one side are never read or written by the other.
struct Subflow {
  std::vector<int> data_path;  // directed link ids, src host -> dst host
  std::vector<int> ack_path;   // directed link ids, dst host -> src host
  TimeNs start_time = 0;
  // Uncongested traversal time of an ACK over ack_path (propagation +
  // serialization, empty queues). Immutable after add_subflow; used to form
  // the loss-feedback delay from state local to the dropping link.
  TimeNs ack_return_ns = 0;

  // --- sender ---
  double cwnd = 2.0;           // packets
  double ssthresh = 1e9;
  std::int32_t snd_next = 0;   // next new sequence to send
  std::int32_t snd_una = 0;    // lowest unacknowledged sequence
  // Sequences reported lost (SACK scoreboard) and not yet retransmitted.
  // Loss detection is oracle-precise (the simulator signals each dropped
  // data packet to its sender), which reproduces the macroscopic behavior
  // of SACK TCP: exactly the lost segments are resent, with one window
  // reduction per flight of data, without modelling SACK blocks on the wire.
  std::set<std::int32_t> lost_out;
  // One-window-reduction-per-flight guard: the next reduction is allowed
  // only once the cumulative ACK passes the frontier recorded at the last
  // reduction (RFC 6675's NewReno-style recovery episode boundary).
  std::int32_t recover = -1;
  double srtt_ns = 0.0;
  double rttvar_ns = 0.0;
  TimeNs rto_ns = 0;
  // Lazy retransmission timer: the deadline slides forward on new ACKs; a
  // fired event that finds now < deadline simply reschedules itself, so at
  // most one timeout event per subflow is ever in the queue.
  bool timer_armed = false;
  TimeNs timer_deadline = 0;
  std::uint32_t timer_gen = 0;
  std::int64_t packets_sent = 0;
  std::int64_t retransmits = 0;
  std::int64_t timeouts = 0;
  // Packets this subflow may originate: -1 = unlimited (backlogged flow),
  // otherwise try_send stops offering new sequences at this bound. Set via
  // the engine's set_flow_size(), which splits a sized flow's packet total
  // across its subflows.
  std::int32_t limit_pkts = -1;
  // Emission counter behind this subflow's event-order keys (see EventOrder).
  std::uint64_t order_seq = 0;

  // --- receiver ---
  std::int32_t rcv_next = 0;
  std::set<std::int32_t> ooo;  // out-of-order packets buffered for reassembly
};

// A transport-level flow between two servers; MPTCP flows own several
// coupled subflows, plain TCP flows own exactly one.
struct Flow {
  int src_server = -1;
  int dst_server = -1;
  bool mptcp = false;  // couple subflow window increases with LIA
  std::vector<Subflow> subflows;
  std::int64_t delivered_bytes_measured = 0;  // in-order payload in the window
  std::int64_t delivered_bytes_total = 0;
  // Transfer size in bytes; 0 = backlogged (sends for the whole run). Sized
  // flows stop sending once every subflow reaches its limit_pkts, which is
  // when the transport reports completion to the telemetry layer.
  std::int64_t size_bytes = 0;
};

// One directed link: fixed rate, propagation delay, drop-tail queue.
// Deliberately not default-constructible: every link takes its parameters
// from the engine's SimConfig (or an explicit add_link overload), so a
// stray Link{} can never carry defaults that silently disagree with the
// configured ones.
struct Link {
  Link(double rate_bps_, TimeNs delay_ns_, int queue_capacity_)
      : rate_bps(rate_bps_), delay_ns(delay_ns_), queue_capacity(queue_capacity_) {}

  double rate_bps;
  TimeNs delay_ns;
  int queue_capacity;
  std::deque<Packet> queue;
  bool busy = false;
  std::int64_t drops = 0;
  std::int64_t tx_packets = 0;
  std::int64_t tx_bytes = 0;
  // Emission counter behind this link's event-order keys (see EventOrder).
  std::uint64_t order_seq = 0;
};

// Deterministic tiebreak for simultaneous events: the emitting entity plus
// its emission count. Entities are links (transmission completions, packet
// arrivals, loss notifications originate at a link) and subflows (timer and
// flow-start events). A link's counter is only ever bumped by handlers
// running in the shard that owns the link, and a subflow's only at its
// flow's source endpoint, so the keys are shard-local to assign yet
// globally consistent.
//
// Ties are compared through `tie`, a strong mix of (src, seq), before the
// raw key. Comparing the raw entity id first would hand every same-time
// conflict to the lowest-numbered link — and ACK clocking quantizes
// competing flows onto a shared bottleneck's service grid, so that fixed
// priority turns into systematic starvation (one flow winning the last
// queue slot on every cycle). The mix keeps the winner deterministic and
// engine-independent while varying it per event, which is the role the
// physical-layer noise plays in a real network.
struct EventOrder {
  std::uint64_t src = 0;  // entity key: kind tag | entity id
  std::uint64_t seq = 0;  // that entity's emission count at creation
  std::uint64_t tie = 0;  // mix(src, seq): the actual tiebreak rank
};

// splitmix64-style finalizer over (src, seq).
inline std::uint64_t mix_order(std::uint64_t src, std::uint64_t seq) {
  std::uint64_t x = src * 0x9E3779B97F4A7C15ULL + seq + 0x632BE59BD9B4E019ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

inline EventOrder make_order(std::uint64_t src, std::uint64_t seq) {
  return {src, seq, mix_order(src, seq)};
}

inline std::uint64_t link_order_src(int link_id) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(link_id));
}
inline std::uint64_t subflow_order_src(int flow, int subflow) {
  return (1ULL << 56) | (static_cast<std::uint64_t>(static_cast<std::uint32_t>(flow)) << 16) |
         static_cast<std::uint64_t>(static_cast<std::uint16_t>(subflow));
}

enum class EventType : std::uint8_t {
  kLinkDone,
  kArrive,
  kTimeout,
  kFlowStart,
  kLossNotify,  // a queue dropped a data packet; tell its sender (oracle SACK)
};

struct Event {
  TimeNs time = 0;
  EventOrder order;
  EventType type = EventType::kArrive;
  std::int32_t a = -1;      // link id (kLinkDone) or flow id (kTimeout/kFlowStart)
  std::int32_t b = -1;      // subflow index for kTimeout/kFlowStart
  std::uint32_t gen = 0;    // timer generation for kTimeout
  Packet pkt;               // payload for kArrive/kLossNotify
};

// "Pops after" comparator over the canonical (time, order) total order:
// mixed rank first, raw (src, seq) as the collision backstop. The full key
// is collision-free by construction (per-entity counters never repeat), so
// the pop sequence is independent of insertion order — the property the
// sharded engine's mailbox merges lean on, and the one that lets the
// calendar queue (sim/event_queue.h) pop exactly what a binary heap over
// this comparator would.
struct EventAfter {
  bool operator()(const Event& x, const Event& y) const {
    if (x.time != y.time) return x.time > y.time;
    if (x.order.tie != y.order.tie) return x.order.tie > y.order.tie;
    if (x.order.src != y.order.src) return x.order.src > y.order.src;
    return x.order.seq > y.order.seq;
  }
};

// Serialization delay of `size_bytes` at `rate_bps`, in integer ns — the
// single rounding point every shard shares.
inline TimeNs transmit_time_ns(int size_bytes, double rate_bps) {
  return static_cast<TimeNs>(static_cast<double>(size_bytes) * 8.0 * 1e9 / rate_bps);
}

// Uncongested traversal time of a `bytes`-sized packet over `path`.
inline TimeNs path_traversal_ns(const std::vector<Link>& links, const std::vector<int>& path,
                                int bytes) {
  TimeNs total = 0;
  for (int l : path) {
    total += links[static_cast<std::size_t>(l)].delay_ns +
             transmit_time_ns(bytes, links[static_cast<std::size_t>(l)].rate_bps);
  }
  return total;
}

// Validates the paths and builds a fully initialized Subflow: the engine's
// add_subflow contract.
inline Subflow make_subflow(const std::vector<Link>& links, const SimConfig& cfg,
                            std::vector<int> data_path, std::vector<int> ack_path,
                            TimeNs start_time) {
  check(!data_path.empty() && !ack_path.empty(), "add_subflow: empty path");
  for (int l : data_path) {
    check(l >= 0 && l < static_cast<int>(links.size()), "add_subflow: bad data link");
  }
  for (int l : ack_path) {
    check(l >= 0 && l < static_cast<int>(links.size()), "add_subflow: bad ack link");
  }
  Subflow sf;
  sf.data_path = std::move(data_path);
  sf.ack_path = std::move(ack_path);
  sf.start_time = start_time;
  sf.ack_return_ns = path_traversal_ns(links, sf.ack_path, cfg.ack_bytes);
  sf.cwnd = cfg.initial_cwnd_pkts;
  sf.rto_ns = cfg.initial_rto_ns;
  return sf;
}

// Sizes a flow: `bytes` of payload become ceil(bytes / payload) packets,
// split as evenly as possible across the flow's subflows (earlier subflows
// absorb the remainder). bytes == 0 restores the backlogged default. The
// engine's set_flow_size contract.
inline void set_flow_size_of(const SimConfig& cfg, Flow& f, std::int64_t bytes) {
  check(bytes >= 0, "set_flow_size: negative size");
  check(!f.subflows.empty(), "set_flow_size: flow has no subflows");
  f.size_bytes = bytes;
  if (bytes == 0) {
    for (Subflow& sf : f.subflows) sf.limit_pkts = -1;
    return;
  }
  const auto total_pkts = (bytes + cfg.payload_bytes - 1) / cfg.payload_bytes;
  const auto n = static_cast<std::int64_t>(f.subflows.size());
  const std::int64_t base = total_pkts / n;
  const std::int64_t rem = total_pkts % n;
  for (std::int64_t s = 0; s < n; ++s) {
    f.subflows[static_cast<std::size_t>(s)].limit_pkts =
        static_cast<std::int32_t>(base + (s < rem ? 1 : 0));
  }
}

inline std::int64_t total_link_drops(const std::vector<Link>& links) {
  std::int64_t total = 0;
  for (const auto& l : links) total += l.drops;
  return total;
}

// Normalized goodput over the measurement window (1.0 = NIC rate); the one
// formula the engine reports through.
inline double normalized_goodput_of(const SimConfig& cfg, TimeNs measure_start,
                                    TimeNs measure_end, const Flow& f) {
  check(measure_end > measure_start, "normalized_goodput: no measurement window set");
  const double seconds = static_cast<double>(measure_end - measure_start) / 1e9;
  return static_cast<double>(f.delivered_bytes_measured) * 8.0 / seconds /
         cfg.link_rate_bps;
}

}  // namespace jf::sim
