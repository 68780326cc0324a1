#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

// The benchmark's own tracing: spans recorded around the calls the
// benchmark makes into each layer (never inside the program), kept in
// memory and written out once as Chrome trace-event JSON. Recording is off
// unless the run is traced, so untraced runs pay one branch per call site.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  int64_t id = 0;
  int64_t parent = -1;      // id of the enclosing span, -1 at the root
  int64_t request_id = -1;  // serve spans: the request they belong to
  std::string name;         // "<layer>.<call>", e.g. "serve.infer_theta"
  Clock::time_point start;
  Clock::time_point end;
  int thread = 0;  // small per-thread index, for the trace viewer
};

// Per span name: how often it ran, its total time, and its self time (the
// part of its duration that no child span covers).
struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanLog {
 public:
  static SpanLog& Get();

  void Enable(bool enabled);
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void Clear();

  // Opens a span on the calling thread (its parent is the thread's
  // innermost open span). Returns -1 and records nothing when disabled.
  int64_t Begin(std::string_view name, int64_t request_id = -1);
  void End(int64_t id);

  // Records a finished span with explicit times and parent (e.g. a
  // request's life from its due time to its completion callback).
  void Add(std::string_view name, Clock::time_point start,
           Clock::time_point end, int64_t parent, int64_t request_id);

  // Innermost open span of the calling thread, -1 when none.
  int64_t Current() const;

  std::vector<Span> Snapshot() const;
  std::map<std::string, SpanTotals> Totals() const;

  // {"traceEvents":[...]} with one complete ("X") event per span; args
  // carry id, parent and request id.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  SpanLog() = default;
  int ThreadIndex();

  // Read by completion callbacks on pool threads.
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // finished and open spans, by id
  std::map<std::thread::id, int> thread_index_;
  Clock::time_point origin_ = Clock::now();
};

// RAII span; inert when the log is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, int64_t request_id = -1)
      : id_(SpanLog::Get().Begin(name, request_id)) {}
  ~ScopedSpan() { SpanLog::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
