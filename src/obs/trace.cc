#include "obs/trace.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"  // monotonic_ns: one epoch for spans and timers

namespace jf::obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

namespace {

struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  const char* arg_keys[kMaxSpanArgs] = {};
  std::int64_t arg_vals[kMaxSpanArgs] = {};
};

constexpr std::size_t kRingCapacity = 1 << 16;  // per thread

// One ring per recording thread. Only the owning thread writes; readers
// (export/reset) run after instrumented regions joined, so plain fields
// suffice. The registry keeps buffers of exited threads alive via
// shared_ptr — WorkerTeam threads are short-lived but their spans must
// survive to export.
struct TraceBuffer {
  int tid = 0;
  std::vector<TraceEvent> events;  // grows to kRingCapacity, then wraps
  std::uint64_t pushed = 0;        // total records; slot = pushed % capacity

  void push(const TraceEvent& ev) {
    if (events.size() < kRingCapacity) {
      events.push_back(ev);
    } else {
      events[static_cast<std::size_t>(pushed % kRingCapacity)] = ev;
    }
    ++pushed;
  }
};

struct TraceRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  int next_tid = 1;

  static TraceRegistry& instance() {
    static TraceRegistry* r = new TraceRegistry;  // leaked: outlives thread exits
    return *r;
  }
};

TraceBuffer& this_thread_buffer() {
  thread_local std::shared_ptr<TraceBuffer> buffer = [] {
    auto b = std::make_shared<TraceBuffer>();
    auto& reg = TraceRegistry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    b->tid = reg.next_tid++;
    reg.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

void set_trace_enabled(bool on) {
  internal::g_trace_enabled.store(on, std::memory_order_relaxed);
}

Span::Span(const char* name, const char* category) : name_(name), cat_(category) {
  if (trace_enabled()) start_ns_ = monotonic_ns();
}

void Span::arg(const char* key, std::int64_t value) {
  if (start_ns_ < 0) return;
  for (int i = 0; i < kMaxSpanArgs; ++i) {
    if (arg_keys_[i] == nullptr) {
      arg_keys_[i] = key;
      arg_vals_[i] = value;
      return;
    }
  }
}

Span::~Span() {
  if (start_ns_ < 0) return;
  TraceEvent ev;
  ev.name = name_;
  ev.cat = cat_;
  ev.start_ns = start_ns_;
  ev.dur_ns = monotonic_ns() - start_ns_;
  std::copy(std::begin(arg_keys_), std::end(arg_keys_), ev.arg_keys);
  std::copy(std::begin(arg_vals_), std::end(arg_vals_), ev.arg_vals);
  this_thread_buffer().push(ev);
}

std::size_t trace_event_count() {
  auto& reg = TraceRegistry::instance();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::size_t n = 0;
  for (const auto& b : reg.buffers) n += b->events.size();
  return n;
}

json::Value trace_to_json() {
  struct Keyed {
    const TraceEvent* ev;
    int tid;
  };
  std::vector<Keyed> all;
  std::uint64_t dropped = 0;
  auto& reg = TraceRegistry::instance();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& b : reg.buffers) {
    dropped += b->pushed - b->events.size();
    for (const auto& ev : b->events) all.push_back({&ev, b->tid});
  }
  std::sort(all.begin(), all.end(), [](const Keyed& a, const Keyed& b) {
    if (a.ev->start_ns != b.ev->start_ns) return a.ev->start_ns < b.ev->start_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.ev->dur_ns > b.ev->dur_ns;  // parents before children
  });

  json::Array events;
  events.reserve(all.size());
  for (const Keyed& k : all) {
    json::Object o;
    o.emplace_back("name", k.ev->name);
    o.emplace_back("cat", k.ev->cat);
    o.emplace_back("ph", "X");
    o.emplace_back("ts", static_cast<double>(k.ev->start_ns) / 1000.0);
    o.emplace_back("dur", static_cast<double>(k.ev->dur_ns) / 1000.0);
    o.emplace_back("pid", 1);
    o.emplace_back("tid", k.tid);
    if (k.ev->arg_keys[0] != nullptr) {
      json::Object args;
      for (int i = 0; i < kMaxSpanArgs; ++i) {
        if (k.ev->arg_keys[i] != nullptr) args.emplace_back(k.ev->arg_keys[i], k.ev->arg_vals[i]);
      }
      o.emplace_back("args", json::Value(std::move(args)));
    }
    events.emplace_back(json::Value(std::move(o)));
  }
  json::Object other;
  other.reserve(1);  // gcc 12 -Warray-bounds misfire on realloc emplace
  other.emplace_back("dropped_events", dropped);
  json::Object root;
  root.reserve(3);
  root.emplace_back("traceEvents", json::Value(std::move(events)));
  // std::string key, not a raw literal: gcc 12's -Warray-bounds misfires
  // on the literal-key emplace_back realloc path (GCC PR 105329 family,
  // same workaround precedent as eval/sweep.cc).
  root.emplace_back(std::string("displayTimeUnit"), json::Value("ms"));
  root.emplace_back("otherData", json::Value(std::move(other)));
  return json::Value(std::move(root));
}

void reset_trace() {
  auto& reg = TraceRegistry::instance();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& b : reg.buffers) {
    b->events.clear();
    b->pushed = 0;
  }
  // Buffers with a single owner (the registry) belong to exited threads;
  // live threads also hold theirs through the thread_local shared_ptr.
  std::erase_if(reg.buffers, [](const std::shared_ptr<TraceBuffer>& b) {
    return b.use_count() == 1;
  });
}

}  // namespace jf::obs
