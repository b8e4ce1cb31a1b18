// Link-layer event mechanics run by every shard of the packet-sim engine.
//
// EngineOps<Engine> implements the store-and-forward machinery — drop-tail
// enqueue, transmission scheduling, hop-by-hop forwarding, and the event
// dispatch switch — exactly once, as a template over the engine state it
// runs against (a sharded::Shard). An engine provides:
//
//   links_, flows_, cfg_, now_, measure_start_, measure_end_   (state)
//   telemetry_                    Telemetry* (may be null); purely observed
//   schedule_self(Event&&)        kLinkDone; the emitting link's own queue
//   dispatch_arrival(Event&&)     kArrive; routed by the packet's next hop
//   dispatch_loss(Event&&)        kLossNotify; routed to the sender endpoint
//   schedule_transport(Event&&)   kTimeout; emitted at the sender endpoint
//
// schedule_self and schedule_transport are shard-local by construction (a
// link's transmissions complete in its own shard; timers fire where the
// sender lives), while dispatch_arrival/dispatch_loss may stage the event
// in a mailbox for another shard; with one shard every hook pushes the one
// queue. Nothing in this file knows which is which — that is the point:
// identical mechanics, identical event-order keys, identical results at any
// shard count.
#pragma once

#include <algorithm>

#include "common/check.h"
#include "sim/core.h"
#include "sim/telemetry.h"
#include "sim/transport_ops.h"

namespace jf::sim {

template <class Engine>
struct EngineOps {
  // Appends the packet to the link's drop-tail queue, starting transmission
  // if the link is idle. On overflow, data packets trigger an oracle-SACK
  // loss notification to the sender (see lost_out in sim/core.h: exact loss
  // detection stands in for SACK TCP's scoreboard). Real SACK feedback
  // takes about one round trip — the following segment's dupacks — so the
  // notification is delayed by the packet's experienced one-way delay plus
  // the uncongested ACK return time, every term of which is local to the
  // dropping link's shard (the packet carries its send timestamp and the
  // return time is a static property of the path). The floor also keeps a
  // dropped retransmission from livelocking the event loop at one
  // timestamp.
  static void enqueue_packet(Engine& eng, int link_id, const Packet& pkt) {
    Link& l = eng.links_[static_cast<std::size_t>(link_id)];
    if (static_cast<int>(l.queue.size()) >= l.queue_capacity) {
      ++l.drops;
      if (eng.telemetry_) eng.telemetry_->on_drop(link_id, eng.now_);
      if (!pkt.is_ack) {
        const Subflow& sf = eng.flows_[static_cast<std::size_t>(pkt.flow)]
                                .subflows[static_cast<std::size_t>(pkt.subflow)];
        const TimeNs feedback = std::max<TimeNs>(eng.cfg_.loss_feedback_floor_ns,
                                                 (eng.now_ - pkt.ts) + sf.ack_return_ns);
        Event ev;
        ev.time = eng.now_ + feedback;
        ev.order = make_order(link_order_src(link_id), l.order_seq++);
        ev.type = EventType::kLossNotify;
        ev.pkt = pkt;
        eng.dispatch_loss(std::move(ev));
      }
      return;
    }
    l.queue.push_back(pkt);
    if (eng.telemetry_) {
      eng.telemetry_->on_enqueue(link_id, eng.now_, static_cast<int>(l.queue.size()));
    }
    if (!l.busy) start_transmission(eng, link_id);
  }

  static void start_transmission(Engine& eng, int link_id) {
    Link& l = eng.links_[static_cast<std::size_t>(link_id)];
    ensure(!l.queue.empty(), "start_transmission: empty queue");
    l.busy = true;
    const Packet& head = l.queue.front();
    Event ev;
    ev.time = eng.now_ + transmit_time_ns(head.size_bytes, l.rate_bps);
    ev.order = make_order(link_order_src(link_id), l.order_seq++);
    ev.type = EventType::kLinkDone;
    ev.a = link_id;
    eng.schedule_self(std::move(ev));
  }

  static void forward_or_deliver(Engine& eng, Packet pkt) {
    Flow& f = eng.flows_[static_cast<std::size_t>(pkt.flow)];
    Subflow& sf = f.subflows[static_cast<std::size_t>(pkt.subflow)];
    const auto& path = pkt.is_ack ? sf.ack_path : sf.data_path;
    if (pkt.hop < static_cast<std::int16_t>(path.size())) {
      const int next_link = path[static_cast<std::size_t>(pkt.hop)];
      ++pkt.hop;
      enqueue_packet(eng, next_link, pkt);
      return;
    }
    // Reached the endpoint: hand to the transport layer.
    if (pkt.is_ack) TransportOps<Engine>::on_ack(eng, pkt);
    else TransportOps<Engine>::on_data(eng, pkt);
  }

  static void handle(Engine& eng, const Event& ev) {
    switch (ev.type) {
      case EventType::kLinkDone: {
        Link& l = eng.links_[static_cast<std::size_t>(ev.a)];
        ensure(l.busy && !l.queue.empty(), "kLinkDone: inconsistent link state");
        Packet pkt = l.queue.front();
        l.queue.pop_front();
        ++l.tx_packets;
        l.tx_bytes += pkt.size_bytes;
        if (eng.telemetry_) eng.telemetry_->on_transmit(ev.a, eng.now_, pkt.size_bytes);
        // Propagate to the next hop after the wire delay.
        Event arrive;
        arrive.time = eng.now_ + l.delay_ns;
        arrive.order = make_order(link_order_src(ev.a), l.order_seq++);
        arrive.type = EventType::kArrive;
        arrive.pkt = pkt;
        eng.dispatch_arrival(std::move(arrive));
        if (!l.queue.empty()) start_transmission(eng, ev.a);
        else l.busy = false;
        break;
      }
      case EventType::kArrive:
        forward_or_deliver(eng, ev.pkt);
        break;
      case EventType::kTimeout:
        TransportOps<Engine>::on_timeout(eng, ev.a, ev.b, ev.gen);
        break;
      case EventType::kFlowStart:
        TransportOps<Engine>::try_send(eng, ev.a, ev.b);
        break;
      case EventType::kLossNotify:
        TransportOps<Engine>::on_loss(eng, ev.pkt);
        break;
    }
  }
};

}  // namespace jf::sim
