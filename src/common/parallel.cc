#include "common/parallel.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"

namespace jf::parallel {

namespace {

// Slot accounting (all no-ops while metrics are off; see obs/metrics.h):
//   granted/denied — how often nested regions get extra workers at all;
//   busy/idle — slot-time split inside WorkerTeam rounds, the utilization
//   signal for borrowed-worker scheduling (busy / (busy + idle)).
obs::Counter& budget_granted_slots() {
  static obs::Counter& c = obs::counter("parallel.budget_granted_slots");
  return c;
}
obs::Counter& budget_denied() {
  static obs::Counter& c = obs::counter("parallel.budget_denied");
  return c;
}
obs::Counter& team_rounds() {
  static obs::Counter& c = obs::counter("parallel.team_rounds");
  return c;
}
obs::Counter& team_busy_ns() {
  static obs::Counter& c = obs::counter("parallel.team_busy_ns");
  return c;
}
obs::Counter& team_idle_ns() {
  static obs::Counter& c = obs::counter("parallel.team_idle_ns");
  return c;
}

}  // namespace

int resolve_threads(int threads) {
  if (threads > 0) return threads;
  // The one sanctioned hardware_concurrency user: machine shape may pick the
  // worker *count*, and every parallel region is schedule-independent, so
  // the count never reaches result bytes.
  // detlint: ok(selects speed only; reports byte-identical at any count)
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

WorkBudget::WorkBudget(int extra_workers)
    : total_(std::max(0, extra_workers)), available_(total_) {}

int WorkBudget::try_acquire(int want) {
  if (want <= 0) return 0;
  int cur = available_.load(std::memory_order_relaxed);
  while (cur > 0) {
    const int take = std::min(cur, want);
    if (available_.compare_exchange_weak(cur, cur - take, std::memory_order_relaxed)) {
      budget_granted_slots().add(take);
      return take;
    }
  }
  budget_denied().increment();
  return 0;
}

void WorkBudget::release(int granted) {
  check(granted >= 0, "WorkBudget::release: negative grant");
  if (granted > 0) available_.fetch_add(granted, std::memory_order_relaxed);
}

WorkerTeam::WorkerTeam(WorkBudget* budget, int max_extra) : budget_(budget) {
  if (budget_ != nullptr && max_extra > 0) extra_ = budget_->try_acquire(max_extra);
  workers_.reserve(static_cast<std::size_t>(extra_));
  try {
    for (int slot = 1; slot <= extra_; ++slot) {
      workers_.emplace_back([this, slot] { worker_loop(slot); });
    }
  } catch (...) {
    // Thread spawn failed mid-way. The destructor will not run, so wind the
    // started workers down and hand every slot back here — otherwise the
    // budget leaks the grant and utilization is unmeasurable for the rest
    // of the process.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
    if (budget_ != nullptr) budget_->release(extra_);
    throw;
  }
}

WorkerTeam::~WorkerTeam() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  if (budget_ != nullptr) budget_->release(extra_);
}

void WorkerTeam::run(int n, const std::function<void(int, int)>& fn) {
  check(n >= 0, "WorkerTeam::run: negative range");
  if (n == 0) return;
  if (extra_ == 0) {
    // Serial fast path: no synchronization, exceptions propagate directly.
    for (int i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  const bool timed = obs::metrics_enabled();
  const std::int64_t round_t0 = timed ? obs::monotonic_ns() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    n_ = n;
    done_.store(0, std::memory_order_relaxed);
    next_.store(0, std::memory_order_relaxed);
    round_busy_ns_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    in_round_ = extra_;
    ++generation_;
  }
  work_cv_.notify_all();
  work(0);
  std::unique_lock<std::mutex> lock(mu_);
  // Wait for the indices *and* for every worker to check out of the round —
  // only then may the next run() (or the destructor) touch the round state.
  done_cv_.wait(lock, [&] {
    return done_.load(std::memory_order_acquire) == n && in_round_ == 0;
  });
  if (timed) {
    // Busy/idle split for this round: every slot was "in" the round for its
    // wall time; whatever it did not spend inside work() is idle (queue
    // wake-up latency, waiting for a long-tail index to finish).
    const std::int64_t wall = obs::monotonic_ns() - round_t0;
    const std::int64_t busy =
        std::min(round_busy_ns_.load(std::memory_order_relaxed), wall * size());
    team_rounds().increment();
    team_busy_ns().add(busy);
    team_idle_ns().add(wall * size() - busy);
  }
  if (error_) {
    auto err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void WorkerTeam::worker_loop(int slot) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    work(slot);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_round_ == 0) done_cv_.notify_all();
    }
  }
}

void WorkerTeam::work(int slot) {
  // fn_/n_ are stable for the whole round: the check-in/check-out protocol
  // guarantees no thread reaches here while run() rewrites them.
  const int n = n_;
  const auto& fn = *fn_;
  const bool timed = obs::metrics_enabled();
  const std::int64_t t0 = timed ? obs::monotonic_ns() : 0;
  while (true) {
    const int i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    std::exception_ptr err;
    try {
      fn(i, slot);
    } catch (...) {
      err = std::current_exception();
    }
    if (err) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = err;
    }
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      std::lock_guard<std::mutex> lock(mu_);  // pair with run()'s wait predicate
      done_cv_.notify_all();
    }
  }
  if (timed) {
    round_busy_ns_.fetch_add(obs::monotonic_ns() - t0, std::memory_order_relaxed);
  }
}

namespace {

// Bounded spin before parking: a few microseconds of `pause`s (about 6 us
// on a 4-vCPU AMD EPYC host).
constexpr int kBarrierSpins = 256;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

EpochBarrier::EpochBarrier(int participants) : participants_(participants) {
  check(participants >= 1, "EpochBarrier: need >= 1 participant");
}

bool EpochBarrier::arrive_and_wait() {
  if (aborted_.load(std::memory_order_acquire)) return false;
  const std::uint32_t epoch = epoch_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
    arrived_.store(0, std::memory_order_relaxed);
    epoch_.store(epoch + 1, std::memory_order_release);
    epoch_.notify_all();
    return !aborted_.load(std::memory_order_acquire);
  }
  for (int spin = 0; spin < kBarrierSpins; ++spin) {
    if (epoch_.load(std::memory_order_acquire) != epoch) {
      return !aborted_.load(std::memory_order_acquire);
    }
    cpu_relax();
  }
  // abort() sets the flag before it bumps the epoch, so a waiter that read
  // the bumped epoch above also sees the flag here.
  while (!aborted_.load(std::memory_order_acquire) &&
         epoch_.load(std::memory_order_acquire) == epoch) {
    epoch_.wait(epoch, std::memory_order_acquire);
  }
  return !aborted_.load(std::memory_order_acquire);
}

void EpochBarrier::abort() {
  aborted_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
}

void parallel_for(int n, WorkBudget* budget, const std::function<void(int)>& fn) {
  check(n >= 0, "parallel_for: negative range");
  if (n == 0) return;
  const int extra = budget != nullptr ? budget->try_acquire(n - 1) : 0;
  if (extra == 0) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  // Borrowed workers hand their slot back the moment they run out of
  // indices — a straggler index can then borrow them through the same
  // budget for its own nested parallelism.
  auto work = [&](bool borrowed) {
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (borrowed) budget->release(1);
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(extra));
  try {
    for (int w = 0; w < extra; ++w) workers.emplace_back(work, true);
  } catch (...) {
    // Spawn failed: started workers hand their own slot back inside work();
    // return the rest here (they would otherwise leak from the budget) and
    // degrade to fewer workers — results are schedule-independent anyway.
    budget->release(extra - static_cast<int>(workers.size()));
  }
  work(false);
  for (auto& w : workers) w.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace jf::parallel
