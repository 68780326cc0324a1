#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include "tensor/tensor.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace contratopic {
namespace serve {

namespace {

using tensor::Tensor;
using util::Status;
using util::StatusOr;

// Latency buckets in milliseconds: CPU inference on tiny batches lands in
// the sub-millisecond to tens-of-ms range.
std::vector<double> LatencyBoundsMs() {
  return {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
          2.5,  5.0,   10.0, 25.0, 50.0, 100.0, 250.0, 1000.0};
}

std::vector<double> BatchSizeBounds() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0};
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StatusOr<std::unique_ptr<InferenceEngine>> InferenceEngine::Load(
    const std::string& path, const Options& options) {
  StatusOr<Checkpoint> ckpt = ReadCheckpoint(path);
  if (!ckpt.ok()) return ckpt.status();
  return FromCheckpoint(std::move(ckpt).value(), options);
}

StatusOr<std::unique_ptr<InferenceEngine>> InferenceEngine::FromCheckpoint(
    Checkpoint checkpoint, const Options& options) {
  StatusOr<std::unique_ptr<topicmodel::NeuralTopicModel>> model =
      RestoreModel(checkpoint);
  if (!model.ok()) return model.status();
  return std::unique_ptr<InferenceEngine>(new InferenceEngine(
      std::move(checkpoint), std::move(model).value(), options));
}

InferenceEngine::InferenceEngine(
    Checkpoint checkpoint,
    std::unique_ptr<topicmodel::NeuralTopicModel> model,
    const Options& options)
    : options_(options),
      checkpoint_(std::move(checkpoint)),
      model_(std::move(model)),
      breaker_(options.breaker) {
  MicroBatcher::Options batcher_options;
  batcher_options.max_batch_size = options_.max_batch_size;
  batcher_options.max_queue_depth = options_.max_queue_depth;
  batcher_options.retry = options_.retry;
  batcher_options.on_batch_done = [this](const util::Status& status) {
    if (status.ok()) {
      breaker_.RecordSuccess();
    } else {
      breaker_.RecordFailure();
    }
  };
  util::Histogram& batch_hist = util::MetricsRegistry::Global().histogram(
      "serve.batch_size", BatchSizeBounds());
  util::Counter& batch_counter =
      util::MetricsRegistry::Global().counter("serve.batches");
  batcher_options.on_batch = [&batch_hist, &batch_counter](int batch_size) {
    batch_hist.Observe(static_cast<double>(batch_size));
    batch_counter.Increment();
  };
  batcher_ = std::make_unique<MicroBatcher>(
      [this](const std::vector<MicroBatcher::Request>& requests) {
        return RunBatch(requests);
      },
      batcher_options);
  // Pre-create the remaining instruments so a manifest snapshot lists
  // them even for an idle engine.
  util::MetricsRegistry::Global().counter("serve.requests");
  util::MetricsRegistry::Global().counter("serve.cache_hits");
  util::MetricsRegistry::Global().counter("serve.shed");
  util::MetricsRegistry::Global().counter("serve.retries");
  util::MetricsRegistry::Global().counter("serve.degraded");
  util::MetricsRegistry::Global().gauge("serve.queue_depth");
  util::MetricsRegistry::Global().histogram("serve.latency_ms",
                                            LatencyBoundsMs());
}

InferenceEngine::~InferenceEngine() = default;

StatusOr<MicroBatcher::Request> InferenceEngine::Canonicalize(
    const BowDoc& doc) const {
  if (doc.empty()) {
    return Status::InvalidArgument("empty document: no (word, count) pairs");
  }
  MicroBatcher::Request request(doc);
  std::sort(request.begin(), request.end());
  MicroBatcher::Request merged;
  merged.reserve(request.size());
  for (const auto& [word, count] : request) {
    if (word < 0 || word >= vocab_size()) {
      return Status::InvalidArgument(
          "word id " + std::to_string(word) + " outside vocabulary [0, " +
          std::to_string(vocab_size()) + ")");
    }
    if (count <= 0) {
      return Status::InvalidArgument("non-positive count " +
                                     std::to_string(count) + " for word " +
                                     std::to_string(word));
    }
    if (!merged.empty() && merged.back().first == word) {
      // Sum wide: two large counts for one word must not overflow int.
      const int64_t total = int64_t{merged.back().second} + count;
      if (total > std::numeric_limits<int>::max()) {
        return Status::InvalidArgument(
            "total count " + std::to_string(total) + " for word " +
            std::to_string(word) + " exceeds " +
            std::to_string(std::numeric_limits<int>::max()));
      }
      merged.back().second = static_cast<int>(total);
    } else {
      merged.emplace_back(word, count);
    }
  }
  return merged;
}

MicroBatcher::BatchResult InferenceEngine::RunBatch(
    const std::vector<MicroBatcher::Request>& requests) {
  // Chaos hook: a fired "serve.batch" stands in for a transient model
  // failure (bad page-in, OOM-killed worker). The batcher retries on the
  // configured schedule before giving up.
  if (util::FaultInjector::Global().ShouldFail("serve.batch")) {
    return Status::Unavailable("injected model batch failure");
  }
  const int64_t v = vocab_size();
  Tensor batch(static_cast<int64_t>(requests.size()), v);
  for (size_t r = 0; r < requests.size(); ++r) {
    float* row = batch.row(static_cast<int64_t>(r));
    for (const auto& [word, count] : requests[r]) {
      row[word] = static_cast<float>(count);
    }
    // Exactly text::BowCorpus::NormalizedBatch: a full-row double sum
    // (zeros add exactly) and one float reciprocal, so served results
    // are bitwise-identical to training-side InferTheta.
    double sum = 0.0;
    for (int64_t c = 0; c < v; ++c) sum += row[c];
    if (sum <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t c = 0; c < v; ++c) row[c] *= inv;
  }
  Tensor theta;
  if (options_.precision.has_value()) {
    // Pin the batch to the engine's precision; the scope restores the
    // process-wide setting for whoever shares this pool worker.
    tensor::ScopedServePrecision scoped(*options_.precision);
    theta = model_->InferThetaBatch(batch);
  } else {
    theta = model_->InferThetaBatch(batch);
  }
  CHECK_EQ(theta.rows(), static_cast<int64_t>(requests.size()));
  CHECK_EQ(theta.cols(), static_cast<int64_t>(num_topics()));
  std::vector<std::vector<float>> rows;
  rows.reserve(requests.size());
  for (int64_t r = 0; r < theta.rows(); ++r) {
    rows.emplace_back(theta.row(r), theta.row(r) + theta.cols());
  }
  return rows;
}

std::string InferenceEngine::CacheKey(const MicroBatcher::Request& request) {
  // The canonical form is unique per document, so its bytes are an exact
  // key (no collision handling needed).
  std::string key(request.size() * sizeof(request[0]), '\0');
  if (!request.empty()) {
    std::memcpy(key.data(), request.data(), key.size());
  }
  return key;
}

bool InferenceEngine::CacheLookup(const std::string& key,
                                  std::vector<float>* theta) {
  if (options_.cache_capacity <= 0) return false;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) return false;
  cache_.splice(cache_.begin(), cache_, it->second);  // bump to front
  *theta = it->second->theta;
  return true;
}

void InferenceEngine::CacheInsert(const std::string& key,
                                  const std::vector<float>& theta) {
  if (options_.cache_capacity <= 0) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    cache_.splice(cache_.begin(), cache_, it->second);
    return;
  }
  cache_.push_front({key, theta});
  cache_index_[key] = cache_.begin();
  while (static_cast<int>(cache_.size()) > options_.cache_capacity) {
    cache_index_.erase(cache_.back().key);
    cache_.pop_back();
  }
}

void InferenceEngine::InferThetaAsync(
    const BowDoc& doc, std::function<void(ThetaResult)> done) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  StatusOr<MicroBatcher::Request> canonical = Canonicalize(doc);
  if (!canonical.ok()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++invalid_;
    }
    done(canonical.status());
    return;
  }
  metrics.counter("serve.requests").Increment();
  const std::string key = CacheKey(*canonical);
  std::vector<float> cached;
  if (CacheLookup(key, &cached)) {
    metrics.counter("serve.cache_hits").Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++cache_hits_;
    }
    done(std::move(cached));
    return;
  }
  // Degraded mode: a cache miss needs the (failing) model. Fast-fail
  // unless the breaker lets this call through as a recovery probe.
  if (!breaker_.AllowRequest()) {
    metrics.counter("serve.degraded").Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++degraded_;
    }
    done(util::Status::Unavailable(
        "engine is degraded (circuit breaker open after repeated model "
        "failures); cached documents and TopicTopWords remain available"));
    return;
  }
  const double start_ms = NowMs();
  batcher_->Submit(
      std::move(canonical).value(),
      [this, key, done = std::move(done), start_ms](
          MicroBatcher::Result result) {
        util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
        if (result.ok()) {
          CacheInsert(key, *result);
          metrics.histogram("serve.latency_ms").Observe(NowMs() - start_ms);
        } else if (result.status().code() ==
                   util::StatusCode::kUnavailable) {
          metrics.counter("serve.shed").Increment();
        }
        done(std::move(result));
      });
  metrics.gauge("serve.queue_depth")
      .Set(static_cast<double>(batcher_->queue_depth()));
}

InferenceEngine::ThetaResult InferenceEngine::InferTheta(const BowDoc& doc) {
  std::promise<ThetaResult> promise;
  std::future<ThetaResult> future = promise.get_future();
  InferThetaAsync(doc, [&promise](ThetaResult result) {
    promise.set_value(std::move(result));
  });
  return future.get();
}

StatusOr<std::vector<std::pair<int, float>>> InferenceEngine::TopTopics(
    const BowDoc& doc, int k) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  ThetaResult theta = InferTheta(doc);
  if (!theta.ok()) return theta.status();
  Tensor row(1, static_cast<int64_t>(theta->size()));
  std::copy(theta->begin(), theta->end(), row.data());
  std::vector<std::pair<int, float>> top;
  for (int t : row.TopKIndicesOfRow(0, std::min(k, num_topics()))) {
    top.emplace_back(t, (*theta)[t]);
  }
  return top;
}

StatusOr<std::vector<std::string>> InferenceEngine::TopicTopWords(
    int topic, int k) const {
  if (topic < 0 || topic >= num_topics()) {
    return Status::InvalidArgument(
        "topic " + std::to_string(topic) + " outside [0, " +
        std::to_string(num_topics()) + ")");
  }
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  const std::vector<int>& ids = checkpoint_.top_words[topic];
  std::vector<std::string> words;
  words.reserve(std::min<size_t>(ids.size(), k));
  for (size_t i = 0; i < ids.size() && i < static_cast<size_t>(k); ++i) {
    words.push_back(checkpoint_.vocab[ids[i]]);
  }
  return words;
}

InferenceEngine::HealthState InferenceEngine::health() const {
  switch (breaker_.state()) {
    case CircuitBreaker::State::kClosed:
      return HealthState::kHealthy;
    case CircuitBreaker::State::kOpen:
      return HealthState::kDegraded;
    case CircuitBreaker::State::kHalfOpen:
      return HealthState::kRecovering;
  }
  return HealthState::kHealthy;  // unreachable
}

InferenceEngine::Stats InferenceEngine::stats() const {
  const MicroBatcher::Stats batcher_stats = batcher_->stats();
  Stats stats;
  stats.shed = batcher_stats.shed;
  stats.batches = batcher_stats.batches;
  stats.retries = batcher_stats.retries;
  stats.deadline_expired = batcher_stats.deadline_expired;
  stats.max_batch_size_seen = batcher_stats.max_batch_size_seen;
  stats.max_queue_depth_seen = batcher_stats.max_queue_depth_seen;
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats.cache_hits = cache_hits_;
  stats.invalid = invalid_;
  stats.degraded = degraded_;
  // Cache hits never reach the batcher, so total accepted requests are
  // the batcher's plus the cache's.
  stats.requests = batcher_stats.requests + cache_hits_;
  return stats;
}

void InferenceEngine::EmitTelemetry(util::RunTelemetry* telemetry) const {
  if (telemetry == nullptr) return;
  const Stats s = stats();
  util::ServeTelemetry record;
  record.requests = s.requests;
  record.batches = s.batches;
  record.cache_hits = s.cache_hits;
  record.shed = s.shed;
  record.invalid = s.invalid;
  record.max_batch_size = s.max_batch_size_seen;
  record.max_queue_depth = s.max_queue_depth_seen;
  const util::HistogramSnapshot latency =
      util::MetricsRegistry::Global().histogram("serve.latency_ms")
          .Snapshot();
  if (latency.count > 0) {
    record.latency_p50_ms = latency.Percentile(0.50);
    record.latency_p95_ms = latency.Percentile(0.95);
    record.latency_p99_ms = latency.Percentile(0.99);
  }
  telemetry->RecordServeStats(record);
}

}  // namespace serve
}  // namespace contratopic
