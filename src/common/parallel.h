// Shared threading primitives: nested work budgets, fork-join teams and an
// epoch barrier for teams that meet many times inside one fork/join.
//
// The eval engine parallelizes across (topology, routing, seed) cells whose
// RNG streams are derived purely from scenario indices, so any assignment of
// cells to workers yields the same numbers. With few big cells that leaves
// workers idle, so cells can *borrow* the leftover threads for within-cell
// work (the MCF Dijkstra sweeps) through a WorkBudget: one process-wide pot
// of worker slots that every parallel region draws from and returns to. A
// WorkerTeam is the borrowing primitive — a reusable fork-join group whose
// schedule-independent contract (deterministic work per index, results
// placed by index) keeps reports byte-identical at every thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace jf::parallel {

// Resolves a user-facing thread count: values <= 0 select the hardware
// concurrency (at least 1).
int resolve_threads(int threads);

// A pot of *extra* worker slots shared by nested parallel regions. The
// calling thread of any region is always free (it never holds a slot), so a
// global budget of T threads is a WorkBudget of T - 1. Regions grab what
// they can get and run serially on their own thread when the pot is empty —
// the grant only ever changes wall-clock time, never results.
class WorkBudget {
 public:
  explicit WorkBudget(int extra_workers);

  // Claims up to `want` slots; returns the number granted (possibly 0).
  int try_acquire(int want);
  void release(int granted);

  int available() const { return available_.load(std::memory_order_relaxed); }

  // Slots the pot started with — the denominator for utilization metrics
  // (`available()` alone cannot tell "fully lent out" from "small pot").
  int total() const { return total_; }

 private:
  int total_;
  std::atomic<int> available_;
};

// A fork-join team: up to `max_extra` threads borrowed from `budget` at
// construction plus the calling thread. run(n, fn) executes fn(index, slot)
// for every index in [0, n) across the team; the caller participates as
// slot 0, borrowed workers are slots 1..extra. Indices are claimed
// dynamically, so fn must not depend on the index-to-slot assignment beyond
// using `slot` to pick scratch buffers. Threads are spawned once and reused
// across run() calls (a condition-variable wake per round), which is what
// iterative solvers need. Slots return to the budget on destruction.
class WorkerTeam {
 public:
  // `budget` may be null (or empty): the team is just the calling thread.
  WorkerTeam(WorkBudget* budget, int max_extra);
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  // 1 + borrowed workers; the number of scratch slots fn may see.
  int size() const { return 1 + extra_; }

  // Runs fn(i, slot) for every i in [0, n). Blocks until all indices
  // finished; rethrows the first exception any index raised.
  void run(int n, const std::function<void(int, int)>& fn);

 private:
  void worker_loop(int slot);
  void work(int slot);

  WorkBudget* budget_ = nullptr;
  int extra_ = 0;

  // Round protocol: run() publishes fn_/n_ and bumps generation_ under mu_;
  // every borrowed worker wakes, drains indices, and checks out of the
  // round by decrementing in_round_ under mu_. run() returns only once all
  // n indices finished AND every worker checked out, so no worker can
  // still be inside work() — mid index claim, or about to read fn_/n_ —
  // when the next run() rewrites the round state. That handshake is what
  // makes the bare atomic index claims in work() race-free.
  std::mutex mu_;
  std::condition_variable work_cv_;  // wakes workers on a new generation/stop
  std::condition_variable done_cv_;  // wakes run(): indices done, workers out
  std::uint64_t generation_ = 0;
  int in_round_ = 0;  // borrowed workers that have not left the current round
  bool stop_ = false;
  const std::function<void(int, int)>* fn_ = nullptr;
  int n_ = 0;
  std::atomic<int> next_{0};
  std::atomic<int> done_{0};
  // Slot-nanoseconds spent inside work() this round; with the round's wall
  // time this yields the team's busy/idle split (obs metrics, see run()).
  std::atomic<std::int64_t> round_busy_ns_{0};
  std::exception_ptr error_;
  std::vector<std::thread> workers_;
};

// A reusable barrier for a fixed group of threads that meet many times in a
// row, e.g. the participants of one WorkerTeam::run that advance a
// simulation window by window.
//
// Epoch protocol: a participant reads the epoch counter, then arrives by
// incrementing `arrived_`. The last arriver resets the count and bumps the
// epoch; everyone else waits for the epoch to move, spinning a bounded
// number of `pause`s first (a back-to-back window is usually only a few
// microseconds of slack away) and then parking on std::atomic::wait. The
// arrivals are a chain of acq_rel read-modify-writes and the bump is a
// release store that every waiter reads with acquire, so every write a
// participant made before arriving at epoch k is visible to every
// participant once it leaves epoch k. Nobody can arrive at epoch k + 1
// before the last arriver of epoch k has reset the count, because nobody
// leaves epoch k before the bump that follows the reset.
//
// abort() releases every current and future waiter: arrive_and_wait()
// returns false from then on. A participant that fails calls it so that
// the others stop instead of waiting forever for an arrival that never
// comes. The spin is kept short because a spinner can share a vCPU with
// the participant it waits for.
class EpochBarrier {
 public:
  explicit EpochBarrier(int participants);

  EpochBarrier(const EpochBarrier&) = delete;
  EpochBarrier& operator=(const EpochBarrier&) = delete;

  // Blocks until every participant arrived at the current epoch; returns
  // true, or false (at once, or as soon as it happens) once abort() was
  // called.
  bool arrive_and_wait();
  void abort();

 private:
  const int participants_;
  // Separate lines: arrivals must not invalidate the line waiters poll.
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> aborted_{false};
};

// Runs fn(i) for every i in [0, n): borrows up to n - 1 workers from
// `budget` (which may be null; then, or with no slot free, the loop runs
// inline) and runs the rest on the calling thread. Workers claim indices
// dynamically, so uneven per-index costs still balance. Rethrows the first
// task exception. Each borrowed worker returns its slot to the budget as
// soon as it runs out of indices, so when a long-tail index is the only one
// left, nested budgeted regions inside it (e.g. an MCF solve) can
// immediately re-borrow the freed workers.
void parallel_for(int n, WorkBudget* budget, const std::function<void(int)>& fn);

}  // namespace jf::parallel
