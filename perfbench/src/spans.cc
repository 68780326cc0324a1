#include "src/spans.h"

#include <algorithm>
#include <fstream>

#include "util/telemetry.h"

namespace perfbench {
namespace {

using contratopic::util::JsonObject;

thread_local std::vector<int64_t> open_spans;

double Micros(Clock::time_point t, Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

void SpanLog::Enable(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

int SpanLog::ThreadIndex() {
  const auto [it, inserted] = thread_index_.emplace(
      std::this_thread::get_id(), static_cast<int>(thread_index_.size()));
  return it->second;
}

int64_t SpanLog::Begin(std::string_view name, int64_t request_id) {
  if (!enabled()) return -1;
  Span span;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request_id = request_id;
  span.name = name;
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = span.id = static_cast<int64_t>(spans_.size());
    span.thread = ThreadIndex();
    span.start = span.end = Clock::now();
    spans_.push_back(std::move(span));
  }
  open_spans.push_back(id);
  return id;
}

void SpanLog::End(int64_t id) {
  if (id < 0) return;
  const Clock::time_point now = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id < static_cast<int64_t>(spans_.size())) spans_[id].end = now;
  }
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

void SpanLog::Add(std::string_view name, Clock::time_point start,
                  Clock::time_point end, int64_t parent,
                  int64_t request_id) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.request_id = request_id;
  span.name = name;
  span.start = start;
  span.end = end;
  span.thread = ThreadIndex();
  spans_.push_back(std::move(span));
}

int64_t SpanLog::Current() const {
  return open_spans.empty() ? -1 : open_spans.back();
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanTotals> SpanLog::Totals() const {
  const std::vector<Span> spans = Snapshot();
  std::vector<std::vector<const Span*>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.parent < static_cast<int64_t>(spans.size())) {
      children[s.parent].push_back(&s);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    const double total = std::chrono::duration<double>(s.end - s.start).count();
    // Union of the children's intervals clipped to this span: children can
    // overlap (concurrent requests under one phase span).
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (const Span* c : children[s.id]) {
      const auto lo = std::max(c->start, s.start);
      const auto hi = std::min(c->end, s.end);
      if (lo < hi) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double child_s = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [lo, hi] : covered) {
      const auto from = std::max(lo, reach);
      if (hi > from) {
        child_s += std::chrono::duration<double>(hi - from).count();
        reach = hi;
      }
    }
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_s += total;
    t.self_s += total - child_s;
  }
  return totals;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : Snapshot()) {
    JsonObject args;
    args.Put("id", s.id).Put("parent", s.parent);
    if (s.request_id >= 0) args.Put("request", s.request_id);
    const double start_us = Micros(s.start, origin_);
    file << (first ? "\n" : ",\n")
         << JsonObject()
                .Put("name", s.name)
                .Put("cat", s.name.substr(0, s.name.find('.')))
                .Put("ph", "X")
                .Put("pid", 1)
                .Put("tid", s.thread)
                .Put("ts", start_us)
                .Put("dur", Micros(s.end, origin_) - start_us)
                .PutRaw("args", args.Build())
                .Build();
    first = false;
  }
  file << "]}\n";
  return static_cast<bool>(file);
}

}  // namespace perfbench
