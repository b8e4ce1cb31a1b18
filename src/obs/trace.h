// Deterministic-by-construction tracing: RAII scoped spans recorded into
// per-thread ring buffers, exported as Chrome trace-event JSON that loads
// directly in chrome://tracing or Perfetto.
//
// Recording contract:
//   - A Span measures the wall time between its construction and
//     destruction on one thread; nesting falls out of scoping (Chrome's
//     viewer stacks spans per thread id by containment).
//   - Names, categories, and arg keys must be string literals (or otherwise
//     outlive the export) — the recorder stores pointers, never copies, so
//     a span costs two clock reads and one ring-slot write, zero
//     allocations after the buffer exists.
//   - Each thread owns its ring buffer (default 64Ki events, oldest events
//     overwritten); buffers are kept alive by a global registry after the
//     thread exits, so spans recorded on short-lived WorkerTeam threads
//     survive until export.
//   - When tracing is disabled (the default) a Span is one relaxed atomic
//     load; no clock is read, nothing is stored.
//
// Export contract: trace_to_json() merges every buffer and sorts events by
// start time, which is safe once instrumented parallel regions have joined
// (the engine joins its workers before the CLI exports). Like the metrics
// layer, tracing is purely observational — reports are byte-identical with
// tracing off or on, at any thread count (gated in tests/test_obs.cc).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/json.h"

namespace jf::obs {

namespace internal {
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

inline bool trace_enabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool on);

// Integer args one span may carry.
inline constexpr int kMaxSpanArgs = 5;

// A scoped trace span ("X" complete event in the Chrome format). Up to
// kMaxSpanArgs integer args may be attached before destruction; they render
// in the viewer's detail pane.
class Span {
 public:
  explicit Span(const char* name, const char* category = "jf");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, std::int64_t value);

 private:
  const char* name_;
  const char* cat_;
  std::int64_t start_ns_ = -1;  // -1: tracing was disabled at construction
  const char* arg_keys_[kMaxSpanArgs] = {};
  std::int64_t arg_vals_[kMaxSpanArgs] = {};
};

// Events currently buffered across all threads (post-wrap, the ring
// capacity bounds this per thread).
std::size_t trace_event_count();

// Chrome trace-event JSON: {"traceEvents": [...], "displayTimeUnit": "ms",
// "otherData": {"dropped_events": N}}. Timestamps/durations are
// microseconds relative to the process observability epoch. Call after
// instrumented parallel regions have joined.
json::Value trace_to_json();

// Clears every buffer and drops buffers of exited threads (for tests).
// Like reset_metrics(), only safe while no instrumented parallel region is
// active.
void reset_trace();

}  // namespace jf::obs
