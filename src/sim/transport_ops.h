// Transport-layer state machines driven by the simulator's shard event loops.
//
// TCP NewReno: slow start, congestion avoidance, fast retransmit/recovery
// with partial-ACK retransmission, RFC 6298 RTO estimation. MPTCP: the same
// machinery per subflow, with congestion-avoidance window increases coupled
// across subflows by the LIA rule (Wischik et al., NSDI 2011) so a multipath
// flow pools capacity instead of grabbing k independent fair shares.
//
// Runs against one sharded::Shard's engine state; tcp.cc holds the
// definitions. Every method runs at one endpoint of the flow: on_data at the
// destination, everything else at the source — the field-ownership split
// Subflow documents, which is what lets the engine place the two endpoints
// in different shards.
#pragma once

#include <cstdint>

#include "sim/core.h"

namespace jf::sim {

namespace sharded {
class Shard;
}

struct TransportOps {
  // Data packet reached its destination host: reassemble, count goodput,
  // emit a (possibly duplicate) cumulative ACK on the reverse path.
  static void on_data(sharded::Shard& sim, const Packet& pkt);

  // Cumulative ACK reached the sender: advance the window, run NewReno.
  static void on_ack(sharded::Shard& sim, const Packet& pkt);

  // RTO fired (if the generation is current): back off and go-back-N.
  static void on_timeout(sharded::Shard& sim, int flow, int subflow, std::uint32_t gen);

  // A queue dropped this data packet (oracle SACK): mark it lost, apply one
  // window reduction per flight, and refill the pipe.
  static void on_loss(sharded::Shard& sim, const Packet& pkt);

  // Pushes packets while the pipe has room: lost segments first (exact
  // retransmission), then new data.
  static void try_send(sharded::Shard& sim, int flow, int subflow);

 private:
  static void send_data(sharded::Shard& sim, int flow, int subflow, std::int32_t seq,
                        bool retransmit);
  static void send_ack(sharded::Shard& sim, const Packet& data);
  // Arms the retransmission timer if data is outstanding and none is armed;
  // `rearm` forces a fresh deadline (used when cumulative ACKs advance).
  static void arm_timer(sharded::Shard& sim, int flow, int subflow, bool rearm);
  static void update_rtt(const sharded::Shard& sim, Subflow& sf, std::int64_t sample_ns);
  // Congestion-avoidance per-ACK window increment (Reno or LIA-coupled).
  static double increase_per_ack(const Flow& f, const Subflow& sf);
};

}  // namespace jf::sim
