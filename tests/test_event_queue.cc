// Differential tests for sim::EventQueue, the packet simulator's calendar
// queue: driven with the same seeded push/peek/pop streams as the binary
// heap that defines the canonical order (std::priority_queue over
// EventAfter), it must pop the identical sequence. Each stream runs at the
// default wheel and at tiny ones (1-ns buckets x 1 and x 2, 4-ns buckets x
// 4), where nearly every event laps the wheel or overflows into the far heap.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/core.h"
#include "sim/event_queue.h"

namespace jf::sim {
namespace {

using Reference = std::priority_queue<Event, std::vector<Event>, EventAfter>;

// One stream's shape. Each step pushes (probability `push`) or pops; a push
// lands at one of the simulator's offsets from the last popped time, unless
// one of the special cases below is drawn.
struct Mix {
  double push = 0.55;
  double same_time = 0.0;   // at exactly the last popped time (a burst)
  double far = 0.02;        // a timer 8 ms to 136 ms ahead (beyond the span)
  double below_peek = 0.0;  // after a peek: below the peeked time (a rewind)
  int ties = 0;             // > 0: `tie` drawn from [0, ties), hitting the backstop
  double drain = 0.0;       // drain to empty, then refill a second later
};

template <class Queue>
class EventQueueDiff : public ::testing::Test {
 protected:
  // Runs `steps` steps of the stream; returns the number of pops compared.
  std::int64_t run(std::uint64_t seed, const Mix& mix, int steps) {
    Rng rng(seed);
    Queue q;
    Reference ref;
    TimeNs now = 0;
    std::uint64_t serial = 0;
    std::int64_t pops = 0;

    auto push_at = [&](TimeNs t) {
      Event ev;
      ev.time = t;
      const std::uint64_t src = rng.uniform_index(4);
      // `serial` keeps every (time, tie, src, seq) key unique, as the
      // simulator's per-entity counters do; `a` identifies the event.
      ev.order = mix.ties > 0
                     ? EventOrder{src, serial, rng.uniform_index(static_cast<std::uint64_t>(mix.ties))}
                     : make_order(src, serial);
      ev.a = static_cast<std::int32_t>(serial);
      ev.pkt.ts = t;
      ++serial;
      ref.push(ev);
      q.push(std::move(ev));
    };
    auto pop_one = [&]() -> bool {
      const Event want = ref.top();
      ref.pop();
      EXPECT_EQ(q.top_time(), want.time) << "pop " << pops;
      const Event got = q.pop();
      ++pops;
      EXPECT_EQ(got.time, want.time) << "pop " << pops;
      EXPECT_EQ(got.a, want.a) << "pop " << pops;
      EXPECT_EQ(got.pkt.ts, want.pkt.ts) << "pop " << pops;
      now = got.time;
      return got.a == want.a && got.time == want.time;
    };
    const TimeNs offsets[] = {320, 5'000, 12'000, 12'320, 17'000};

    for (int step = 0; step < steps; ++step) {
      if (mix.drain > 0 && rng.bernoulli(mix.drain)) {
        while (!ref.empty()) {
          if (!pop_one()) return pops;
        }
        EXPECT_TRUE(q.empty());
        now += kMillisecond * 1000 + static_cast<TimeNs>(rng.uniform_index(1'000'000));
      }
      if (ref.empty() || rng.bernoulli(mix.push)) {
        TimeNs t;
        if (mix.same_time > 0 && rng.bernoulli(mix.same_time)) {
          t = now;
        } else if (rng.bernoulli(mix.far)) {
          t = now + 8 * kMillisecond +
              static_cast<TimeNs>(rng.uniform_index(128 * kMillisecond));
        } else {
          t = now + offsets[rng.uniform_index(5)] +
              static_cast<TimeNs>(rng.uniform_index(64));
        }
        push_at(t);
      } else if (mix.below_peek > 0 && rng.bernoulli(mix.below_peek)) {
        // A barrier hand-off: the queue has settled on the peeked bucket,
        // and the new event lands anywhere between now and the peek.
        const TimeNs peek = q.top_time();
        EXPECT_EQ(peek, ref.top().time);
        push_at(now + static_cast<TimeNs>(
                          rng.uniform_index(static_cast<std::uint64_t>(peek - now) + 1)));
      } else if (!pop_one()) {
        return pops;
      }
      EXPECT_EQ(q.size(), ref.size());
      if (::testing::Test::HasFailure()) return pops;
    }
    while (!ref.empty()) {
      if (!pop_one()) return pops;
    }
    EXPECT_TRUE(q.empty());
    return pops;
  }

  void run_seeds(const Mix& mix) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      EXPECT_GT(run(seed, mix, 20'000), 1'000);
      if (::testing::Test::HasFailure()) return;
    }
  }
};

using Queues = ::testing::Types<EventQueue<>, EventQueue<0, 1>, EventQueue<0, 2>,
                                EventQueue<2, 4>>;
TYPED_TEST_SUITE(EventQueueDiff, Queues);

TYPED_TEST(EventQueueDiff, SimulatorTimeMix) { this->run_seeds({}); }

TYPED_TEST(EventQueueDiff, SameTimeBursts) {
  this->run_seeds({.push = 0.6, .same_time = 0.5});
}

TYPED_TEST(EventQueueDiff, TieCollisionsHitTheBackstop) {
  this->run_seeds({.push = 0.6, .same_time = 0.5, .ties = 2});
}

TYPED_TEST(EventQueueDiff, TimersBeyondTheSpan) {
  this->run_seeds({.push = 0.5, .far = 0.4});
}

TYPED_TEST(EventQueueDiff, PushesBelowThePeekedBucket) {
  this->run_seeds({.push = 0.45, .same_time = 0.1, .far = 0.05, .below_peek = 0.5});
}

TYPED_TEST(EventQueueDiff, DrainToEmptyThenRefillFarLater) {
  this->run_seeds({.push = 0.55, .same_time = 0.1, .far = 0.1, .below_peek = 0.2,
                   .drain = 0.002});
}

// A push below the last *popped* time is outside the simulator's contract,
// but the queue stays a plain priority queue there too.
TYPED_TEST(EventQueueDiff, PushesBelowTheLastPop) {
  TypeParam q;
  Reference ref;
  Rng rng(9);
  for (std::uint64_t i = 0; i < 4'000; ++i) {
    Event ev;
    ev.time = static_cast<TimeNs>(rng.uniform_index(50'000'000));
    ev.order = make_order(i % 3, i);
    ev.a = static_cast<std::int32_t>(i);
    ref.push(ev);
    q.push(std::move(ev));
    if (i % 3 == 2) {
      ASSERT_EQ(q.top_time(), ref.top().time);
      ASSERT_EQ(q.pop().a, ref.top().a);
      ref.pop();
    }
  }
  while (!ref.empty()) {
    ASSERT_EQ(q.pop().a, ref.top().a);
    ref.pop();
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace jf::sim
