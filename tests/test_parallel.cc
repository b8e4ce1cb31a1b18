// common/parallel: work-budget accounting, worker teams (slot ids, reuse
// across rounds, error propagation), budgeted parallel_for (error
// propagation, nesting with early slot release), and the epoch barrier
// (visibility across epochs, abort).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace jf::parallel {
namespace {

TEST(ResolveThreads, PositivePassesThroughNonPositiveSelectsHardware) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_GE(resolve_threads(-5), 1);
}

TEST(WorkBudget, AcquireIsCappedAndReleaseRestores) {
  WorkBudget budget(3);
  EXPECT_EQ(budget.available(), 3);
  EXPECT_EQ(budget.try_acquire(2), 2);
  EXPECT_EQ(budget.available(), 1);
  EXPECT_EQ(budget.try_acquire(5), 1);  // partial grant drains the pot
  EXPECT_EQ(budget.try_acquire(1), 0);  // empty: run serial
  budget.release(3);
  EXPECT_EQ(budget.available(), 3);
  EXPECT_EQ(budget.try_acquire(0), 0);  // want <= 0 is a no-op
}

TEST(WorkBudget, NegativeConstructionClampsToZero) {
  WorkBudget budget(-2);
  EXPECT_EQ(budget.available(), 0);
  EXPECT_EQ(budget.try_acquire(1), 0);
}

TEST(WorkerTeam, NullBudgetRunsSerialWithSlotZero) {
  WorkerTeam team(nullptr, 8);
  EXPECT_EQ(team.size(), 1);
  std::vector<int> order;
  team.run(5, [&](int i, int slot) {
    EXPECT_EQ(slot, 0);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerTeam, BorrowsSlotsAndRunsEveryIndexOnceAcrossRounds) {
  WorkBudget budget(3);
  WorkerTeam team(&budget, 3);
  EXPECT_EQ(team.size(), 4);
  EXPECT_EQ(budget.available(), 0);  // slots held for the team's lifetime
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> hits(17);
    std::atomic<int> bad_slot{0};
    team.run(17, [&](int i, int slot) {
      if (slot < 0 || slot >= team.size()) bad_slot = 1;
      hits[static_cast<std::size_t>(i)]++;
    });
    EXPECT_EQ(bad_slot.load(), 0);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

// Regression for the stale-round race: alternating tiny and large rounds is
// exactly the MCF pattern (sweep over a shrinking active set, then a full
// dual sweep). A worker lingering from a small round must never claim an
// index of — or double-count completions in — the next, larger round.
TEST(WorkerTeam, AlternatingRoundSizesStayExact) {
  WorkBudget budget(3);
  WorkerTeam team(&budget, 3);
  for (int round = 0; round < 200; ++round) {
    const int n = (round % 2 == 0) ? 2 : 64;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    team.run(n, [&](int i, int) { hits[static_cast<std::size_t>(i)]++; });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "round " << round;
  }
}

TEST(WorkerTeam, ReleasesSlotsOnDestruction) {
  WorkBudget budget(2);
  {
    WorkerTeam team(&budget, 2);
    EXPECT_EQ(budget.available(), 0);
  }
  EXPECT_EQ(budget.available(), 2);
}

TEST(WorkerTeam, PropagatesFirstException) {
  WorkBudget budget(2);
  WorkerTeam team(&budget, 2);
  EXPECT_THROW(team.run(32,
                        [](int i, int) {
                          if (i % 7 == 3) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The team stays usable after a failed round.
  std::atomic<int> sum{0};
  team.run(10, [&](int i, int) { sum += i; });
  EXPECT_EQ(sum.load(), 45);
}

TEST(BudgetedParallelFor, RunsEveryIndexAndReturnsSlots) {
  WorkBudget budget(3);
  std::vector<std::atomic<int>> hits(40);
  parallel_for(40, &budget, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(budget.available(), 3);
}

TEST(BudgetedParallelFor, PropagatesTaskExceptionAndReturnsSlots) {
  WorkBudget budget(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(8, &budget,
                            [&](int i) {
                              ran++;
                              if (i == 3) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // Borrowed workers keep claiming indices past the failure, so every index
  // runs, and every slot is back before the rethrow.
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(budget.available(), 3);
}

TEST(BudgetedParallelFor, NullAndEmptyBudgetsRunSerial) {
  std::vector<int> order;
  parallel_for(4, static_cast<WorkBudget*>(nullptr), [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  WorkBudget empty(0);
  order.clear();
  parallel_for(4, &empty, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(BudgetedParallelFor, NestedRegionsShareOneBudget) {
  // Outer loop over "cells", inner budgeted loops inside each cell: every
  // index at both levels must run exactly once no matter how slots are
  // split, and the budget must drain back to full.
  WorkBudget budget(3);
  std::vector<std::atomic<int>> inner_hits(6 * 8);
  parallel_for(6, &budget, [&](int cell) {
    parallel_for(8, &budget, [&](int i) {
      inner_hits[static_cast<std::size_t>(cell * 8 + i)]++;
    });
  });
  for (const auto& h : inner_hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(budget.available(), 3);
}

// Each participant writes its own slot of a plain (non-atomic) array before
// arriving and reads every slot after leaving: the barrier alone must make
// the writes visible (and, under ThreadSanitizer, ordered). Slots are
// double-buffered by epoch parity, the way the packet simulator uses the
// barrier, so a participant that leaves epoch e first cannot overwrite what
// a slower one still reads. Every 1000th epoch one participant sleeps, so
// the others also take the parked (atomic wait) path.
TEST(EpochBarrier, EveryEpochsWritesAreVisibleToAllAfterIt) {
  constexpr int kParticipants = 3;
  constexpr std::int64_t kEpochs = 20'000;
  EpochBarrier barrier(kParticipants);
  std::array<std::array<std::int64_t, kParticipants>, 2> slots{};
  std::array<std::int64_t, kParticipants> mismatches{};
  std::array<std::int64_t, kParticipants> passed{};
  auto participant = [&](int p) {
    for (std::int64_t e = 0; e < kEpochs; ++e) {
      const auto parity = static_cast<std::size_t>(e & 1);
      slots[parity][static_cast<std::size_t>(p)] = e * kParticipants + p;
      if (e % 1000 == 0 && (e / 1000) % kParticipants == p) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!barrier.arrive_and_wait()) return;
      ++passed[static_cast<std::size_t>(p)];
      for (int q = 0; q < kParticipants; ++q) {
        if (slots[parity][static_cast<std::size_t>(q)] != e * kParticipants + q) {
          ++mismatches[static_cast<std::size_t>(p)];
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int p = 1; p < kParticipants; ++p) threads.emplace_back(participant, p);
  participant(0);
  for (auto& t : threads) t.join();
  for (int p = 0; p < kParticipants; ++p) {
    EXPECT_EQ(passed[static_cast<std::size_t>(p)], kEpochs) << "participant " << p;
    EXPECT_EQ(mismatches[static_cast<std::size_t>(p)], 0) << "participant " << p;
  }
}

// A participant that fails calls abort() instead of arriving: the others,
// waiting for it, are released with false, and every later arrival returns
// false at once.
TEST(EpochBarrier, AbortReleasesTheOtherParticipants) {
  constexpr int kParticipants = 3;
  constexpr int kEpochsBeforeAbort = 100;
  EpochBarrier barrier(kParticipants);
  std::array<int, kParticipants> passed{};
  auto waiter = [&](int p) {
    while (barrier.arrive_and_wait()) ++passed[static_cast<std::size_t>(p)];
  };
  std::vector<std::thread> threads;
  for (int p = 0; p < kParticipants - 1; ++p) threads.emplace_back(waiter, p);
  for (int e = 0; e < kEpochsBeforeAbort; ++e) {
    ASSERT_TRUE(barrier.arrive_and_wait());
  }
  // Let the waiters reach the next epoch and park before aborting it.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  barrier.abort();
  for (auto& t : threads) t.join();
  for (int p = 0; p < kParticipants - 1; ++p) {
    EXPECT_EQ(passed[static_cast<std::size_t>(p)], kEpochsBeforeAbort) << "participant " << p;
  }
  EXPECT_FALSE(barrier.arrive_and_wait());
}

TEST(EpochBarrier, OneParticipantNeverWaits) {
  EpochBarrier barrier(1);
  for (int e = 0; e < 1000; ++e) ASSERT_TRUE(barrier.arrive_and_wait());
  barrier.abort();
  EXPECT_FALSE(barrier.arrive_and_wait());
  EXPECT_THROW(EpochBarrier(0), std::invalid_argument);
}

}  // namespace
}  // namespace jf::parallel
