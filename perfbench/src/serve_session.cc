// The serving session of a traced run: an InferenceEngine (default
// Options: micro-batches of up to 32, LRU cache of 1024) driven from one
// generator thread with the pool at two threads. Phase 1 is an open loop of
// Poisson arrivals at 300 req/s (latency timed from each request's due
// time); phase 2 keeps 96 to 128 requests in flight to measure capacity.
// Documents come from the reference corpus of the run's seed; about a fifth
// of requests repeat a small hot set.

#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>

#include "src/workloads.h"

namespace perfbench {
namespace {

namespace serve = contratopic::serve;
using serve::InferenceEngine;

inline constexpr double kArrivalRate = 300.0;  // req/s, phase 1
inline constexpr int kInFlight = 128;          // phase 2
// Phase 2 tops the requests in flight back up to kInFlight once this many
// have completed: one wake-up of the generator per engine batch, not one
// per answer, so the generator's own hand-offs do not set the rate.
inline constexpr int kRefill = 32;
// Phase 1 sleeps until this long before a request is due and spins for the
// rest, so the generator's own timer wake-up is not charged as latency.
inline constexpr auto kSpinBeforeDue = std::chrono::microseconds(200);
inline constexpr int kHotDocs = 16;
inline constexpr double kHotFraction = 0.2;
// The phases are cut into windows and report the median of the windows'
// figures, so a few seconds of host contention move one window, not the
// result.
inline constexpr double kPhase1WindowS = 2.0;
inline constexpr double kPhase2WindowS = 1.0;

}  // namespace

InferenceEngine::BowDoc ToBowDoc(const text::Document& doc) {
  InferenceEngine::BowDoc bow;
  bow.reserve(doc.entries.size());
  for (const text::BowEntry& e : doc.entries) {
    bow.emplace_back(e.word_id, e.count);
  }
  return bow;
}

std::vector<std::vector<float>> OfflineTheta(
    topicmodel::NeuralTopicModel& model, const text::BowCorpus& docs) {
  std::vector<std::vector<float>> rows;
  rows.reserve(docs.num_docs());
  constexpr int kChunk = 256;
  for (int begin = 0; begin < docs.num_docs(); begin += kChunk) {
    std::vector<int> indices;
    for (int i = begin; i < std::min(docs.num_docs(), begin + kChunk); ++i) {
      indices.push_back(i);
    }
    const tensor::Tensor theta =
        model.InferThetaBatch(docs.NormalizedBatch(indices));
    for (int64_t r = 0; r < theta.rows(); ++r) {
      rows.emplace_back(theta.row(r), theta.row(r) + theta.cols());
    }
  }
  return rows;
}

void RunServeSession(InferenceEngine& engine, const text::BowCorpus& docs,
                     const std::vector<std::vector<float>>& reference,
                     uint64_t seed, double phase1_s, double phase2_s,
                     Outcome* out) {
  const int num_docs = docs.num_docs();
  std::vector<InferenceEngine::BowDoc> bows;
  bows.reserve(num_docs);
  for (int d = 0; d < num_docs; ++d) bows.push_back(ToBowDoc(docs.doc(d)));
  RequestMix mix(DeriveSeed(seed, "request-mix"), num_docs, kHotDocs,
                 kHotFraction);
  const std::vector<double> arrivals =
      PoissonArrivals(DeriveSeed(seed, "arrivals"), kArrivalRate, phase1_s);
  const int n1 = static_cast<int>(arrivals.size());
  std::vector<double> latency_ms(n1, -1.0);  // phase 1, -1 when failed
  std::vector<double> late_ms(n1);

  // Shared with the completion callbacks, which run on pool workers (or
  // inline for cache hits and refusals).
  std::mutex mu;
  std::condition_variable cv;
  int64_t failed = 0;
  int64_t mismatched = 0;
  int in_flight = 0;
  // The generator is blocked on `cv` until at most `wake_at` requests are
  // in flight (-1: not waiting); completions wake it only then, so the
  // dispatching thread does not pay a wake-up per answer.
  int wake_at = -1;
  // Phase-2 completions per window; the phase's start is set before its
  // first request goes out.
  std::vector<int64_t> phase2_done(
      static_cast<size_t>(std::max(1.0, phase2_s / kPhase2WindowS)), 0);
  Clock::time_point phase2_start;

  const InferenceEngine::Stats before = engine.stats();
  SpanLog& log = SpanLog::Get();
  // Sends request `i` for `doc`, due at `due`; phase-1 requests record
  // their latency from the due time.
  const auto submit = [&](int64_t i, int doc, Clock::time_point due,
                          int64_t parent) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++in_flight;
    }
    ScopedSpan span("serve.infer_theta_async", i);
    engine.InferThetaAsync(
        bows[doc], [&, i, doc, due, parent](InferenceEngine::ThetaResult r) {
          const Clock::time_point done = Clock::now();
          const bool ok = r.ok();
          const bool match = ok && *r == reference[static_cast<size_t>(doc)];
          if (i < n1 && ok) {
            latency_ms[i] =
                std::chrono::duration<double, std::milli>(done - due).count();
          }
          log.Add("serve.request", due, done, parent, i);
          bool wake = false;
          {
            std::lock_guard<std::mutex> lock(mu);
            --in_flight;
            wake = in_flight <= wake_at;
            failed += !ok;
            mismatched += ok && !match;
            if (i >= n1 && ok) {
              const auto window = static_cast<size_t>(
                  std::chrono::duration<double>(done - phase2_start).count() /
                  kPhase2WindowS);
              if (window < phase2_done.size()) ++phase2_done[window];
            }
          }
          if (wake) cv.notify_one();
        });
  };
  // Blocks until at most `level` requests are in flight; false after 60 s.
  const auto wait_until_in_flight = [&](int level) {
    std::unique_lock<std::mutex> lock(mu);
    wake_at = level;
    const bool done = cv.wait_for(lock, std::chrono::seconds(60),
                                  [&] { return in_flight <= level; });
    wake_at = -1;
    return done;
  };

  // Phase 1: open loop. Requests go out at their due times whatever the
  // engine's state; latency runs from the due time to the answer.
  bool drained = true;
  {
    ScopedSpan phase("serve.phase1_open_loop");
    const int64_t parent = log.Current();
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    for (int i = 0; i < n1; ++i) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(arrivals[i]));
      std::this_thread::sleep_until(due - kSpinBeforeDue);
      while (Clock::now() < due) {
      }
      late_ms[i] = SecondsSince(due) * 1e3;
      submit(i, mix.Next(), due, parent);
    }
    drained = wait_until_in_flight(0);
  }

  // Phase 2: closed loop holding kInFlight - kRefill to kInFlight requests
  // outstanding.
  int64_t sent = n1;
  double phase2_elapsed = 0.0;
  {
    ScopedSpan phase("serve.phase2_capacity");
    const int64_t parent = log.Current();
    {
      std::lock_guard<std::mutex> lock(mu);
      phase2_start = Clock::now();
    }
    const Clock::time_point start = phase2_start;
    while (drained && SecondsSince(start) < phase2_s) {
      drained = wait_until_in_flight(kInFlight - kRefill);
      int room = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        room = kInFlight - in_flight;
      }
      for (int r = 0; r < room; ++r) {
        submit(sent++, mix.Next(), Clock::now(), parent);
      }
    }
    drained = drained && wait_until_in_flight(0);
    phase2_elapsed = SecondsSince(start);
  }
  if (!drained) {
    // Callbacks still reference this frame; there is no safe way on.
    std::fprintf(stderr, "perfbench: requests unanswered after 60 s\n");
    std::_Exit(3);
  }

  // Phase 1 latency: p50 as the median of the windows' medians; p99 over
  // the whole phase (a window holds too few samples for it).
  std::vector<double> answered_ms;
  std::vector<std::vector<double>> windows(
      static_cast<size_t>(phase1_s / kPhase1WindowS) + 1);
  for (int i = 0; i < n1; ++i) {
    if (latency_ms[i] < 0.0) continue;
    answered_ms.push_back(latency_ms[i]);
    windows[static_cast<size_t>(arrivals[i] / kPhase1WindowS)].push_back(
        latency_ms[i]);
  }
  std::vector<double> window_p50;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) window_p50.push_back(Median(w));
  }
  // Phase 2 capacity: the median of the full windows' completion rates.
  std::vector<double> window_rate;
  for (size_t w = 0; w < phase2_done.size(); ++w) {
    if ((w + 1) * kPhase2WindowS <= phase2_elapsed) {
      window_rate.push_back(phase2_done[w] / kPhase2WindowS);
    }
  }
  out->attempted += sent;
  out->failed += failed;
  out->Check(mismatched == 0,
             std::to_string(mismatched) +
                 " served thetas differ from offline InferThetaBatch");
  out->Check(!window_p50.empty() && !window_rate.empty(),
             "a serving phase answered no request");
  if (!window_p50.empty()) out->Set("serve.p50_ms", Median(window_p50), "ms");
  if (!window_rate.empty()) {
    out->Set("serve.rate_per_s", Median(window_rate), "1/s");
  }
  if (const std::optional<double> p99 = TailPercentile(answered_ms, 0.99)) {
    out->Set("serve.p99_ms", *p99, "ms");
  }
  if (const std::optional<double> late = TailPercentile(late_ms, 0.99)) {
    out->Set("serve.gen_late_p99_ms", *late, "ms");
  }

  const InferenceEngine::Stats after = engine.stats();
  const int64_t requests = after.requests - before.requests;
  const int64_t hits = after.cache_hits - before.cache_hits;
  const int64_t batches = after.batches - before.batches;
  const int64_t refused = (after.shed - before.shed) +
                          (after.invalid - before.invalid) +
                          (after.deadline_expired - before.deadline_expired);
  if (batches > 0) {
    out->Set("serve.batch_size_mean",
             static_cast<double>(requests - hits - refused) / batches,
             "count");
  }
  if (requests > 0) {
    out->Set("serve.cache_hit_ratio", static_cast<double>(hits) / requests,
             "ratio");
  }
  out->Set("serve.failed", static_cast<double>(std::max(failed, refused)),
           "count");
}

}  // namespace perfbench
