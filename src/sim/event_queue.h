// Per-shard pending-event queue of the packet simulator: a calendar queue
// that pops events in the canonical (time, EventOrder) order.
//
// Layout. Every pending event lives in one slab (a vector of Events with a
// free list), wherever it is filed:
//
//   run     the events of the *active* bucket `cursor_`, as slab indices
//           sorted by EventAfter with the minimum at back()
//   wheel   kWheel buckets, each kBucketNs = 2^kBucketShift ns wide; bucket
//           number b = time >> kBucketShift is filed in slot b mod kWheel,
//           an intrusive singly linked list threaded through the slab
//   far     an index heap (EventAfter over the slab) for events at least
//           kWheel buckets past the cursor: mostly retransmission timers and
//           late loss notifications
//
// The wheel covers bucket numbers [cursor_, cursor_ + kWheel) at push time.
// A slot may also hold events of a later lap (bucket numbers that differ by
// a multiple of kWheel): that happens when a push below the cursor rewinds
// it. Collecting a bucket therefore takes only the events whose bucket
// number equals the cursor and leaves the others linked.
//
// Invariant. Every pending event has bucket number >= cursor_. While the
// run is non-empty it holds *every* pending event of bucket cursor_: a push
// into that bucket is a sorted insert into the run, and far events are
// moved into the wheel before the cursor settles on a bucket (the far heap
// is popped while its minimum falls inside the wheel's span).
//
// Why the pop order equals the binary heap's. pop() returns run.back(). The
// run is sorted by EventAfter, so back() is the minimum of its bucket; every
// event not in the run has a larger bucket number, hence a strictly larger
// time, hence follows back() in (time, tie, src, seq) order. So pop()
// returns the minimum of the strict total order EventAfter defines over
// all pending events — exactly what std::priority_queue<Event, ...,
// EventAfter> pops. The minimum of a strict total order is unique, so the
// pop sequence is a function of the push/pop sequence alone, for any
// kBucketShift and kWheel: those constants (and where an event is filed)
// decide speed only, never order. A rewind (push below the cursor) first
// returns the run to its slot and lowers the cursor, which restores the
// invariant before the push is filed.
//
// Cost. push is O(1) into the wheel, a sorted insert into the (short) run,
// or O(log F) into the far heap; pop is O(1) plus an amortized bucket scan
// and one sort per bucket. The defaults, 512 buckets of 128 ns (a 65.5 us
// span), fit the simulator's time mix: a 320 ns ACK serialization, 5 us
// wire delays and 12 us MTU serializations land in the wheel, and only RTO
// timers (8 ms and more) and late loss notifications go to the far heap —
// about 0.3% of pushes on the bench/e2e sim_sharded workload. That workload
// keeps ~60 events per shard in a 1 us window at 4 shards, so 128 ns
// buckets keep runs to a few events; 1024 ns buckets cost ~10% more CPU,
// in longer sorts and sorted inserts.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/core.h"

namespace jf::sim {

template <int kBucketShift = 7, int kWheel = 512>
class EventQueue {
  static_assert(kBucketShift >= 0 && kBucketShift < 62, "bucket width out of range");
  static_assert(kWheel >= 1 && (kWheel & (kWheel - 1)) == 0, "wheel size must be 2^n");

 public:
  EventQueue() { heads_.fill(kNil); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(Event&& ev) {
    const std::int64_t b = bucket_of(ev.time);
    const std::uint32_t idx = alloc(std::move(ev));
    if (b < cursor_) rewind(b);
    if (b == cursor_ && !run_.empty()) {
      run_.insert(std::lower_bound(run_.begin(), run_.end(), idx, after()), idx);
    } else if (b - cursor_ < kWheel) {
      link(idx, slot_of(b));
    } else {
      far_.push_back(idx);
      std::push_heap(far_.begin(), far_.end(), after());
    }
  }

  // Time of the minimum pending event; settles the cursor on its bucket.
  // Requires !empty().
  TimeNs top_time() {
    settle();
    return slab_[run_.back()].time;
  }

  // Removes and returns the minimum pending event. Requires !empty().
  Event pop() {
    settle();
    const std::uint32_t idx = run_.back();
    run_.pop_back();
    Event ev = std::move(slab_[idx]);
    next_[idx] = free_;
    free_ = idx;
    --size_;
    return ev;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  static std::int64_t bucket_of(TimeNs t) { return t >> kBucketShift; }
  static std::size_t slot_of(std::int64_t b) {
    return static_cast<std::size_t>(b & (kWheel - 1));
  }

  // Slab-index comparator: "a pops after b".
  struct After {
    const std::vector<Event>* slab;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      return EventAfter{}((*slab)[a], (*slab)[b]);
    }
  };
  After after() const { return After{&slab_}; }

  std::uint32_t alloc(Event&& ev) {
    ++size_;
    if (free_ != kNil) {
      const std::uint32_t idx = free_;
      free_ = next_[idx];
      slab_[idx] = std::move(ev);
      return idx;
    }
    ensure(slab_.size() < kNil, "EventQueue: slab index overflow");
    slab_.push_back(std::move(ev));
    next_.push_back(kNil);
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }

  void link(std::uint32_t idx, std::size_t slot) {
    next_[idx] = heads_[slot];
    heads_[slot] = idx;
    ++wheel_count_;
  }

  // A push below the cursor: hand the active run back to its slot and lower
  // the cursor, so every pending event is again at or past it.
  void rewind(std::int64_t b) {
    const std::size_t slot = slot_of(cursor_);
    for (std::uint32_t idx : run_) link(idx, slot);
    run_.clear();
    cursor_ = b;
  }

  // Moves far events that entered the wheel's span into their slots.
  void pull_far() {
    while (!far_.empty()) {
      const std::int64_t b = bucket_of(slab_[far_.front()].time);
      if (b - cursor_ >= kWheel) return;
      std::pop_heap(far_.begin(), far_.end(), after());
      link(far_.back(), slot_of(b));
      far_.pop_back();
    }
  }

  // Unlinks the cursor bucket's events from its slot into the run.
  void collect() {
    std::uint32_t* prev = &heads_[slot_of(cursor_)];
    while (*prev != kNil) {
      const std::uint32_t idx = *prev;
      if (bucket_of(slab_[idx].time) == cursor_) {
        *prev = next_[idx];
        --wheel_count_;
        run_.push_back(idx);
      } else {
        prev = &next_[idx];
      }
    }
  }

  // Lowest bucket number among wheel events (after a full lap of empty
  // buckets they are all later-lap events, filed before a rewind).
  std::int64_t min_wheel_bucket() const {
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (std::uint32_t head : heads_) {
      for (std::uint32_t idx = head; idx != kNil; idx = next_[idx]) {
        best = std::min(best, bucket_of(slab_[idx].time));
      }
    }
    return best;
  }

  // Makes the run non-empty: advances the cursor to the next occupied
  // bucket and collects it, sorted with the minimum at back().
  void settle() {
    if (!run_.empty()) return;
    ensure(size_ > 0, "EventQueue: pop/top on an empty queue");
    while (true) {
      pull_far();
      for (int step = 0; step < kWheel && wheel_count_ > 0; ++step) {
        collect();
        if (!run_.empty()) {
          std::sort(run_.begin(), run_.end(), after());
          return;
        }
        ++cursor_;
        pull_far();
      }
      // An empty wheel, or a full lap of empty buckets (the wheel then holds
      // only later-lap events): jump straight to the earliest pending bucket.
      std::int64_t next = wheel_count_ > 0 ? min_wheel_bucket()
                                           : std::numeric_limits<std::int64_t>::max();
      if (!far_.empty()) next = std::min(next, bucket_of(slab_[far_.front()].time));
      cursor_ = next;
    }
  }

  std::vector<Event> slab_;
  // Per slab index: the next index in its wheel slot's list, or in the free
  // list once the event has been popped.
  std::vector<std::uint32_t> next_;
  std::uint32_t free_ = kNil;
  std::array<std::uint32_t, kWheel> heads_;
  std::vector<std::uint32_t> run_;
  std::vector<std::uint32_t> far_;
  std::int64_t cursor_ = 0;
  std::size_t wheel_count_ = 0;
  std::size_t size_ = 0;
};

}  // namespace jf::sim
