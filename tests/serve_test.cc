// Serving-path correctness: a checkpointed model reloaded by the
// InferenceEngine must reproduce the training process's InferTheta
// bitwise -- at any thread count, batched or one-at-a-time, cached or
// not -- and degrade gracefully (Status, never a crash) under overload.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "embed/word_embeddings.h"
#include "serve/batcher.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "serve/resilience.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "text/corpus.h"
#include "text/synthetic.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace contratopic {
namespace serve {
namespace {

using tensor::Tensor;
using topicmodel::TrainConfig;

TrainConfig TinyConfig() {
  TrainConfig config;
  config.num_topics = 8;
  config.epochs = 3;
  config.batch_size = 128;
  config.encoder_hidden = 32;
  config.encoder_layers = 1;
  return config;
}

// Tiny dataset plus one trained ETM and its reference inference output,
// built once for the whole file.
struct ServeFixture {
  text::SyntheticDataset dataset;
  embed::WordEmbeddings embeddings;
  std::unique_ptr<topicmodel::TopicModel> etm;
  Tensor etm_theta;  // reference: in-memory InferTheta over the test set
  std::string etm_checkpoint;

  ServeFixture()
      : dataset(text::GenerateSynthetic(text::Preset20NG(0.15))),
        embeddings(embed::WordEmbeddings::Train(dataset.train, [] {
          embed::EmbeddingConfig c;
          c.dimension = 24;
          return c;
        }())) {
    etm = core::CreateModel("etm", TinyConfig(), embeddings);
    etm->Train(dataset.train);
    etm_theta = etm->InferTheta(dataset.test);
    // gtest_discover_tests runs every TEST in its own process; the pid
    // suffix keeps parallel ctest workers from clobbering each other's
    // fixture checkpoint mid-read.
    etm_checkpoint = ::testing::TempDir() + "/serve_fixture_etm_" +
                     std::to_string(::getpid()) + ".ckpt";
    CHECK(SaveCheckpoint(*etm, dataset.train.vocab(), etm_checkpoint).ok());
  }
};

ServeFixture& Shared() {
  static ServeFixture* fixture = new ServeFixture();
  return *fixture;
}

InferenceEngine::BowDoc ToBowDoc(const text::Document& doc) {
  InferenceEngine::BowDoc bow;
  bow.reserve(doc.entries.size());
  for (const auto& e : doc.entries) bow.emplace_back(e.word_id, e.count);
  return bow;
}

bool BitwiseEqual(const std::vector<float>& served, const Tensor& reference,
                  int64_t row) {
  return served.size() == static_cast<size_t>(reference.cols()) &&
         std::memcmp(served.data(), reference.row(row),
                     served.size() * sizeof(float)) == 0;
}

TEST(ServeTest, LoadedEngineReproducesInferThetaBitwise) {
  ServeFixture& shared = Shared();
  auto engine = InferenceEngine::Load(shared.etm_checkpoint);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ((*engine)->descriptor().type, "etm");
  EXPECT_EQ((*engine)->num_topics(), 8);
  EXPECT_EQ((*engine)->vocab_size(), shared.dataset.train.vocab().size());

  const int n = std::min(40, shared.dataset.test.num_docs());
  for (int i = 0; i < n; ++i) {
    const text::Document& doc = shared.dataset.test.doc(i);
    if (doc.entries.empty()) continue;
    InferenceEngine::ThetaResult theta =
        (*engine)->InferTheta(ToBowDoc(doc));
    ASSERT_TRUE(theta.ok()) << theta.status();
    EXPECT_TRUE(BitwiseEqual(*theta, shared.etm_theta, i)) << "doc " << i;
  }
}

TEST(ServeTest, ServingIsThreadCountInvariant) {
  ServeFixture& shared = Shared();
  const int n = std::min(24, shared.dataset.test.num_docs());
  std::vector<std::vector<float>> results[2];
  const int thread_counts[2] = {1, 4};
  for (int leg = 0; leg < 2; ++leg) {
    util::ThreadPool::SetGlobalNumThreads(thread_counts[leg]);
    auto engine = InferenceEngine::Load(shared.etm_checkpoint);
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (int i = 0; i < n; ++i) {
      const text::Document& doc = shared.dataset.test.doc(i);
      if (doc.entries.empty()) continue;
      InferenceEngine::ThetaResult theta =
          (*engine)->InferTheta(ToBowDoc(doc));
      ASSERT_TRUE(theta.ok()) << theta.status();
      results[leg].push_back(std::move(theta).value());
    }
  }
  util::ThreadPool::SetGlobalNumThreads(0);
  ASSERT_EQ(results[0].size(), results[1].size());
  for (size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_EQ(std::memcmp(results[0][i].data(), results[1][i].data(),
                          results[0][i].size() * sizeof(float)),
              0)
        << "doc " << i << " differs between 1 and 4 threads";
  }
}

TEST(ServeTest, BatchedMatchesOneAtATimeBitwise) {
  ServeFixture& shared = Shared();
  InferenceEngine::Options unbatched;
  unbatched.max_batch_size = 1;
  unbatched.cache_capacity = 0;
  InferenceEngine::Options batched;
  batched.max_batch_size = 16;
  batched.cache_capacity = 0;
  auto one = InferenceEngine::Load(shared.etm_checkpoint, unbatched);
  auto many = InferenceEngine::Load(shared.etm_checkpoint, batched);
  ASSERT_TRUE(one.ok() && many.ok());

  const int n = std::min(48, shared.dataset.test.num_docs());
  // Burst-submit against the batched engine so real multi-request
  // batches form, then compare with serial one-at-a-time serving.
  std::vector<std::future<InferenceEngine::ThetaResult>> futures;
  for (int i = 0; i < n; ++i) {
    const text::Document& doc = shared.dataset.test.doc(i);
    auto promise =
        std::make_shared<std::promise<InferenceEngine::ThetaResult>>();
    futures.push_back(promise->get_future());
    (*many)->InferThetaAsync(ToBowDoc(doc),
                             [promise](InferenceEngine::ThetaResult r) {
                               promise->set_value(std::move(r));
                             });
  }
  for (int i = 0; i < n; ++i) {
    const text::Document& doc = shared.dataset.test.doc(i);
    if (doc.entries.empty()) continue;
    InferenceEngine::ThetaResult serial = (*one)->InferTheta(ToBowDoc(doc));
    InferenceEngine::ThetaResult burst = futures[i].get();
    ASSERT_TRUE(serial.ok()) << serial.status();
    ASSERT_TRUE(burst.ok()) << burst.status();
    EXPECT_EQ(std::memcmp(serial->data(), burst->data(),
                          serial->size() * sizeof(float)),
              0)
        << "doc " << i;
    EXPECT_TRUE(BitwiseEqual(*burst, shared.etm_theta, i)) << "doc " << i;
  }
}

TEST(ServeTest, CacheHitsSkipTheModelAndMatchBitwise) {
  ServeFixture& shared = Shared();
  auto engine = InferenceEngine::Load(shared.etm_checkpoint);
  ASSERT_TRUE(engine.ok());
  const text::Document& doc = shared.dataset.test.doc(0);
  ASSERT_GE(doc.entries.size(), 2u);

  InferenceEngine::ThetaResult first = (*engine)->InferTheta(ToBowDoc(doc));
  ASSERT_TRUE(first.ok());
  const int64_t batches_after_miss = (*engine)->stats().batches;

  // Same document again: served from cache, no new model call.
  InferenceEngine::ThetaResult second = (*engine)->InferTheta(ToBowDoc(doc));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);

  // A permuted and duplicate-split request canonicalizes to the same
  // document, so it must hit the same cache entry.
  InferenceEngine::BowDoc scrambled = ToBowDoc(doc);
  std::reverse(scrambled.begin(), scrambled.end());
  for (auto& [word, count] : scrambled) {
    if (count >= 2) {  // split (w, c) into (w, c-1) + (w, 1)
      --count;
      scrambled.emplace_back(word, 1);
      break;
    }
  }
  InferenceEngine::ThetaResult third = (*engine)->InferTheta(scrambled);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*first, *third);

  const InferenceEngine::Stats stats = (*engine)->stats();
  EXPECT_GE(stats.cache_hits, 2);
  EXPECT_EQ((*engine)->stats().batches, batches_after_miss);
}

TEST(ServeTest, FullQueueShedsWithUnavailable) {
  ServeFixture& shared = Shared();
  InferenceEngine::Options options;
  options.max_queue_depth = 4;
  options.cache_capacity = 0;
  auto engine = InferenceEngine::Load(shared.etm_checkpoint, options);
  ASSERT_TRUE(engine.ok());

  // Pause dispatch so the queue fills deterministically.
  (*engine)->batcher().Pause();
  std::vector<std::future<InferenceEngine::ThetaResult>> futures;
  const int n = std::min(6, shared.dataset.test.num_docs());
  ASSERT_EQ(n, 6) << "fixture test set too small for the shed test";
  for (int i = 0; i < n; ++i) {
    auto promise =
        std::make_shared<std::promise<InferenceEngine::ThetaResult>>();
    futures.push_back(promise->get_future());
    (*engine)->InferThetaAsync(ToBowDoc(shared.dataset.test.doc(i)),
                               [promise](InferenceEngine::ThetaResult r) {
                                 promise->set_value(std::move(r));
                               });
  }
  // Requests 5 and 6 found the 4-deep queue full: shed immediately.
  for (int i = 4; i < 6; ++i) {
    InferenceEngine::ThetaResult shed = futures[i].get();
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), util::StatusCode::kUnavailable);
  }
  (*engine)->batcher().Resume();
  for (int i = 0; i < 4; ++i) {
    InferenceEngine::ThetaResult accepted = futures[i].get();
    ASSERT_TRUE(accepted.ok()) << accepted.status();
    EXPECT_TRUE(BitwiseEqual(*accepted, shared.etm_theta, i));
  }
  const InferenceEngine::Stats stats = (*engine)->stats();
  EXPECT_EQ(stats.shed, 2);
  EXPECT_EQ(stats.max_queue_depth_seen, 4);
}

TEST(ServeTest, TopicTopWordsMatchTheModelsBeta) {
  ServeFixture& shared = Shared();
  auto engine = InferenceEngine::Load(shared.etm_checkpoint);
  ASSERT_TRUE(engine.ok());
  const Tensor beta = shared.etm->Beta();
  const text::Vocabulary& vocab = shared.dataset.train.vocab();
  for (int k = 0; k < (*engine)->num_topics(); ++k) {
    auto words = (*engine)->TopicTopWords(k, 10);
    ASSERT_TRUE(words.ok()) << words.status();
    // The serving contract is a prefix of the checkpoint's precomputed
    // top-25 list (ties within the top 25 keep that list's order).
    std::vector<int> expected = beta.TopKIndicesOfRow(k, kCheckpointTopWords);
    expected.resize(10);
    ASSERT_EQ(words->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*words)[i], vocab.Word(expected[i]))
          << "topic " << k << " word " << i;
    }
  }
  EXPECT_FALSE((*engine)->TopicTopWords(-1, 10).ok());
  EXPECT_FALSE((*engine)->TopicTopWords(99, 10).ok());
  EXPECT_FALSE((*engine)->TopicTopWords(0, 0).ok());
}

TEST(ServeTest, TopTopicsAreSortedAndConsistentWithTheta) {
  ServeFixture& shared = Shared();
  auto engine = InferenceEngine::Load(shared.etm_checkpoint);
  ASSERT_TRUE(engine.ok());
  const InferenceEngine::BowDoc doc = ToBowDoc(shared.dataset.test.doc(1));
  InferenceEngine::ThetaResult theta = (*engine)->InferTheta(doc);
  ASSERT_TRUE(theta.ok());
  auto top = (*engine)->TopTopics(doc, 3);
  ASSERT_TRUE(top.ok()) << top.status();
  ASSERT_EQ(top->size(), 3u);
  for (size_t i = 0; i + 1 < top->size(); ++i) {
    EXPECT_GE((*top)[i].second, (*top)[i + 1].second);
  }
  for (const auto& [topic, weight] : *top) {
    EXPECT_FLOAT_EQ(weight, (*theta)[topic]);
  }
}

TEST(ServeTest, InvalidRequestsAreInvalidArgument) {
  ServeFixture& shared = Shared();
  auto engine = InferenceEngine::Load(shared.etm_checkpoint);
  ASSERT_TRUE(engine.ok());
  const int v = (*engine)->vocab_size();

  const InferenceEngine::BowDoc empty;
  const InferenceEngine::BowDoc oov = {{v, 3}};
  const InferenceEngine::BowDoc negative_id = {{-1, 3}};
  const InferenceEngine::BowDoc zero_count = {{0, 0}};
  for (const auto& doc : {empty, oov, negative_id, zero_count}) {
    InferenceEngine::ThetaResult theta = (*engine)->InferTheta(doc);
    ASSERT_FALSE(theta.ok());
    EXPECT_EQ(theta.status().code(), util::StatusCode::kInvalidArgument);
  }
  EXPECT_EQ((*engine)->stats().invalid, 4);
}

TEST(ServeTest, DuplicateCountsPastIntMaxAreInvalidArgument) {
  ServeFixture& shared = Shared();
  auto engine = InferenceEngine::Load(shared.etm_checkpoint);
  ASSERT_TRUE(engine.ok());
  const int max = std::numeric_limits<int>::max();
  const InferenceEngine::BowDoc doc = {{2, max}, {2, max}};
  InferenceEngine::ThetaResult theta = (*engine)->InferTheta(doc);
  ASSERT_FALSE(theta.ok());
  EXPECT_EQ(theta.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(theta.status().message().find("word 2"), std::string::npos)
      << theta.status().message();
}

TEST(ServeTest, DuplicateCountsSummingToIntMaxAreAccepted) {
  ServeFixture& shared = Shared();
  auto engine = InferenceEngine::Load(shared.etm_checkpoint);
  ASSERT_TRUE(engine.ok());
  const int max = std::numeric_limits<int>::max();
  InferenceEngine::ThetaResult split =
      (*engine)->InferTheta({{2, max - 1}, {2, 1}});
  ASSERT_TRUE(split.ok()) << split.status();
  InferenceEngine::ThetaResult whole = (*engine)->InferTheta({{2, max}});
  ASSERT_TRUE(whole.ok()) << whole.status();
  EXPECT_EQ(*split, *whole);
}

TEST(ServeTest, FileAndInMemoryCheckpointsServeIdentically) {
  ServeFixture& shared = Shared();
  auto from_file = InferenceEngine::Load(shared.etm_checkpoint);
  ASSERT_TRUE(from_file.ok());
  util::StatusOr<Checkpoint> built =
      BuildCheckpoint(*shared.etm, shared.dataset.train.vocab());
  ASSERT_TRUE(built.ok()) << built.status();
  auto in_memory = InferenceEngine::FromCheckpoint(std::move(built).value());
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();

  for (int i = 0; i < std::min(8, shared.dataset.test.num_docs()); ++i) {
    const text::Document& doc = shared.dataset.test.doc(i);
    if (doc.entries.empty()) continue;
    InferenceEngine::ThetaResult a = (*from_file)->InferTheta(ToBowDoc(doc));
    InferenceEngine::ThetaResult b = (*in_memory)->InferTheta(ToBowDoc(doc));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "doc " << i;
  }
}

TEST(ServeTest, ContraTopicCheckpointServesBitwise) {
  ServeFixture& shared = Shared();
  TrainConfig config = TinyConfig();
  config.epochs = 2;
  auto model = core::CreateModel("contratopic", config, shared.embeddings);
  model->Train(shared.dataset.train);
  const Tensor reference = model->InferTheta(shared.dataset.test);

  const std::string path = ::testing::TempDir() + "/serve_contratopic.ckpt";
  ASSERT_TRUE(SaveCheckpoint(*model, shared.dataset.train.vocab(), path).ok());
  auto engine = InferenceEngine::Load(path);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ((*engine)->descriptor().type, "contratopic");

  for (int i = 0; i < std::min(16, shared.dataset.test.num_docs()); ++i) {
    const text::Document& doc = shared.dataset.test.doc(i);
    if (doc.entries.empty()) continue;
    InferenceEngine::ThetaResult theta = (*engine)->InferTheta(ToBowDoc(doc));
    ASSERT_TRUE(theta.ok()) << theta.status();
    EXPECT_TRUE(BitwiseEqual(*theta, reference, i)) << "doc " << i;
  }
}

TEST(ServeTest, QuantizedCheckpointServesFileAndMemoryIdentically) {
  // A v3 (quantized) checkpoint must serve exactly like its in-memory
  // parse: the file round trip adds no additional error beyond the
  // storage quantization itself.
  ServeFixture& shared = Shared();
  for (tensor::ServePrecision storage :
       {tensor::ServePrecision::kBf16, tensor::ServePrecision::kInt8}) {
    const std::string path = ::testing::TempDir() + "/serve_quant_" +
                             tensor::ServePrecisionName(storage) + ".ckpt";
    ASSERT_TRUE(SaveQuantizedCheckpoint(*shared.etm,
                                        shared.dataset.train.vocab(), path,
                                        storage)
                    .ok());
    InferenceEngine::Options options;
    options.precision = storage;  // serve at the storage precision too
    auto from_file = InferenceEngine::Load(path, options);
    ASSERT_TRUE(from_file.ok()) << from_file.status();
    util::StatusOr<Checkpoint> parsed = ReadCheckpoint(path);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->storage_precision, storage);
    auto in_memory =
        InferenceEngine::FromCheckpoint(std::move(parsed).value(), options);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status();
    for (int i = 0; i < std::min(8, shared.dataset.test.num_docs()); ++i) {
      const text::Document& doc = shared.dataset.test.doc(i);
      if (doc.entries.empty()) continue;
      InferenceEngine::ThetaResult a =
          (*from_file)->InferTheta(ToBowDoc(doc));
      InferenceEngine::ThetaResult b =
          (*in_memory)->InferTheta(ToBowDoc(doc));
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b) << "doc " << i << " at "
                        << tensor::ServePrecisionName(storage);
    }
  }
}

// ---------------------------------------------------------------------------
// Resilience primitives (serve/resilience.h)
// ---------------------------------------------------------------------------

TEST(ResilienceTest, BackoffScheduleIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.base_backoff_ms = 2.0;
  policy.max_backoff_ms = 16.0;
  policy.backoff_multiplier = 2.0;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double wait = policy.BackoffMs(attempt);
    // Same (seed, attempt) -> same wait, every time.
    EXPECT_EQ(wait, policy.BackoffMs(attempt)) << "attempt " << attempt;
    // Exponential base capped at max, jitter in [0, 50%).
    const double base = std::min(policy.max_backoff_ms,
                                 2.0 * std::pow(2.0, attempt - 1));
    EXPECT_GE(wait, base) << "attempt " << attempt;
    EXPECT_LT(wait, base * 1.5) << "attempt " << attempt;
  }
  RetryPolicy reseeded = policy;
  reseeded.jitter_seed = 1;
  bool any_differs = false;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    any_differs |= reseeded.BackoffMs(attempt) != policy.BackoffMs(attempt);
  }
  EXPECT_TRUE(any_differs) << "jitter_seed had no effect";
}

TEST(ResilienceTest, BackoffStaysFiniteForHugeAttemptCounts) {
  // multiplier^(attempt-1) overflows double around attempt ~1075 for
  // multiplier 2; the schedule must stay finite, capped, and
  // deterministic anyway -- a long outage must not produce inf/NaN waits.
  RetryPolicy policy;
  policy.base_backoff_ms = 2.0;
  policy.max_backoff_ms = 16.0;
  policy.backoff_multiplier = 2.0;
  for (int attempt : {100, 1100, 100000, std::numeric_limits<int>::max()}) {
    const double wait = policy.BackoffMs(attempt);
    EXPECT_TRUE(std::isfinite(wait)) << "attempt " << attempt;
    EXPECT_GE(wait, policy.max_backoff_ms) << "attempt " << attempt;
    EXPECT_LT(wait, policy.max_backoff_ms * 1.5) << "attempt " << attempt;
    EXPECT_EQ(wait, policy.BackoffMs(attempt)) << "attempt " << attempt;
  }

  // Zero base means "no backoff configured": never NaN, never max.
  RetryPolicy zero_base = policy;
  zero_base.base_backoff_ms = 0.0;
  for (int attempt : {1, 4, 5000}) {
    const double wait = zero_base.BackoffMs(attempt);
    EXPECT_EQ(wait, 0.0) << "attempt " << attempt;
  }

  // Degenerate multipliers stay within [0, max * 1.5) too.
  for (double multiplier : {0.0, 0.5, 1.0, 1e300}) {
    RetryPolicy weird = policy;
    weird.backoff_multiplier = multiplier;
    for (int attempt : {1, 2, 64, 4096}) {
      const double wait = weird.BackoffMs(attempt);
      EXPECT_TRUE(std::isfinite(wait))
          << "multiplier " << multiplier << " attempt " << attempt;
      EXPECT_GE(wait, 0.0);
      EXPECT_LT(wait, policy.max_backoff_ms * 1.5);
    }
  }
}

TEST(ResilienceTest, CircuitBreakerStateMachine) {
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  options.probe_interval = 3;
  options.success_threshold = 2;
  CircuitBreaker breaker(options);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());

  // A success between failures resets the consecutive count.
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Open: denied until the probe_interval-th call probes.
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());  // the probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.denied(), 2);

  // Half-open: success_threshold successes close it again.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  // A half-open failure slams it shut again.
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

// Direct coverage of the half-open probe window. Two latent-bug shapes
// are pinned down here: a stale success count surviving into the next
// probe window (the breaker would close one success early), and a failed
// probe not restarting the open-state call counter (the next probe would
// arrive too soon).
TEST(ResilienceTest, CircuitBreakerHalfOpenProbeWindows) {
  CircuitBreaker::Options options;
  options.failure_threshold = 1;
  options.probe_interval = 3;
  options.success_threshold = 2;
  CircuitBreaker breaker(options);

  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // First probe window: the probe is admitted, records one of the two
  // required successes, then the recovery attempt fails.
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());  // the probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // The failed probe restarts the window: a full probe_interval of calls
  // must pass before the next probe is admitted.
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // The success from the previous window must not carry over: one success
  // here leaves the breaker half-open; only the second closes it.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.denied(), 4);
}

// Outcome reports for requests that were already in flight when the
// breaker opened must be inert: they may not close the breaker or shift
// the probe schedule.
TEST(ResilienceTest, CircuitBreakerIgnoresStragglerOutcomesWhileOpen) {
  CircuitBreaker::Options options;
  options.failure_threshold = 1;
  options.probe_interval = 2;
  options.success_threshold = 1;
  CircuitBreaker breaker(options);

  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  breaker.RecordSuccess();  // straggler from before the breaker opened
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // The probe schedule is unchanged: deny one, then probe.
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// MicroBatcher resilience: deadlines, shutdown, retries
// ---------------------------------------------------------------------------

// A model-free batch function: request {{w, c}} echoes row {w}.
MicroBatcher::BatchResult EchoBatch(
    const std::vector<MicroBatcher::Request>& requests) {
  std::vector<std::vector<float>> rows;
  rows.reserve(requests.size());
  for (const auto& r : requests) {
    rows.push_back({static_cast<float>(r[0].first)});
  }
  return rows;
}

TEST(BatcherTest, ShutdownWithoutDrainCancelsQueuedRequests) {
  MicroBatcher batcher(EchoBatch, MicroBatcher::Options());
  batcher.Pause();
  std::vector<std::future<MicroBatcher::Result>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(batcher.Submit({{i, 1}}));
  }
  batcher.Shutdown(/*drain_pending=*/false);
  for (auto& f : futures) {
    MicroBatcher::Result r = f.get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kCancelled);
  }
  // Submissions after shutdown are refused with kCancelled too.
  MicroBatcher::Result late = batcher.Submit({{9, 1}}).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kCancelled);
  EXPECT_EQ(batcher.stats().cancelled, 4);
}

TEST(BatcherTest, ShutdownWithDrainCompletesQueuedRequests) {
  MicroBatcher batcher(EchoBatch, MicroBatcher::Options());
  batcher.Pause();
  std::vector<std::future<MicroBatcher::Result>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(batcher.Submit({{i, 1}}));
  }
  batcher.Shutdown(/*drain_pending=*/true);
  for (int i = 0; i < 3; ++i) {
    MicroBatcher::Result r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ((*r)[0], static_cast<float>(i));
  }
  EXPECT_EQ(batcher.stats().cancelled, 0);
}

TEST(BatcherTest, ExpiredDeadlineFailsWithDeadlineExceeded) {
  MicroBatcher batcher(EchoBatch, MicroBatcher::Options());
  batcher.Pause();  // guarantee both requests wait in the queue
  // deadline_ms = 0: already expired by the time dispatch reaches it.
  std::future<MicroBatcher::Result> expired =
      batcher.Submit({{3, 1}}, /*deadline_ms=*/0.0);
  std::future<MicroBatcher::Result> generous =
      batcher.Submit({{4, 1}}, /*deadline_ms=*/60000.0);
  batcher.Resume();

  MicroBatcher::Result late = expired.get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kDeadlineExceeded);

  MicroBatcher::Result fine = generous.get();
  ASSERT_TRUE(fine.ok()) << fine.status();
  EXPECT_EQ((*fine)[0], 4.0f);
  EXPECT_EQ(batcher.stats().deadline_expired, 1);
}

TEST(BatcherTest, TransientBatchFailuresAreRetriedOnSchedule) {
  std::atomic<int> attempts{0};
  MicroBatcher::Options options;
  options.retry.max_attempts = 3;
  options.retry.base_backoff_ms = 0.01;
  options.retry.max_backoff_ms = 0.1;
  MicroBatcher batcher(
      [&attempts](const std::vector<MicroBatcher::Request>& requests)
          -> MicroBatcher::BatchResult {
        if (attempts.fetch_add(1) < 2) {
          return util::Status::Unavailable("transient model failure");
        }
        return EchoBatch(requests);
      },
      options);
  MicroBatcher::Result r = batcher.Submit({{7, 1}}).get();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)[0], 7.0f);
  EXPECT_EQ(attempts.load(), 3);
  const MicroBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.failed_batches, 0);
}

TEST(BatcherTest, ExhaustedRetriesFailTheRequests) {
  MicroBatcher::Options options;
  options.retry.max_attempts = 2;
  options.retry.base_backoff_ms = 0.01;
  options.retry.max_backoff_ms = 0.1;
  util::Status last_status = util::Status::OK();
  options.on_batch_done = [&last_status](const util::Status& s) {
    last_status = s;
  };
  MicroBatcher batcher(
      [](const std::vector<MicroBatcher::Request>&)
          -> MicroBatcher::BatchResult {
        return util::Status::Unavailable("model is down");
      },
      options);
  MicroBatcher::Result r = batcher.Submit({{1, 1}}).get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kUnavailable);
  batcher.Drain();
  const MicroBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(stats.failed_batches, 1);
  EXPECT_EQ(last_status.code(), util::StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Engine resilience: injected batch faults, retries, circuit breaker
// ---------------------------------------------------------------------------

// Arms nothing itself; just guarantees no fault schedule leaks across
// tests (the injector is process-global).
struct FaultGuard {
  FaultGuard() { util::FaultInjector::Global().Reset(); }
  ~FaultGuard() { util::FaultInjector::Global().Reset(); }
};

TEST(ServeTest, EngineRetriesInjectedBatchFaults) {
  FaultGuard guard;
  ServeFixture& shared = Shared();
  InferenceEngine::Options options;
  options.cache_capacity = 0;
  options.retry.max_attempts = 3;
  options.retry.base_backoff_ms = 0.01;
  options.retry.max_backoff_ms = 0.1;
  auto engine = InferenceEngine::Load(shared.etm_checkpoint, options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  util::FaultSpec spec;
  spec.every_nth = 1;
  spec.max_fires = 2;  // first two attempts fail, the third succeeds
  util::FaultInjector::Global().Arm("serve.batch", spec);

  InferenceEngine::ThetaResult theta =
      (*engine)->InferTheta(ToBowDoc(shared.dataset.test.doc(0)));
  ASSERT_TRUE(theta.ok()) << theta.status();
  EXPECT_TRUE(BitwiseEqual(*theta, shared.etm_theta, 0));
  EXPECT_EQ((*engine)->stats().retries, 2);
  EXPECT_EQ((*engine)->health(), InferenceEngine::HealthState::kHealthy);
}

TEST(ServeTest, EngineDegradesWhenBreakerOpensAndRecoversViaProbe) {
  FaultGuard guard;
  ServeFixture& shared = Shared();
  InferenceEngine::Options options;
  options.breaker.failure_threshold = 2;
  options.breaker.probe_interval = 2;
  options.breaker.success_threshold = 1;
  auto engine = InferenceEngine::Load(shared.etm_checkpoint, options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  // Warm the cache while healthy.
  ASSERT_TRUE((*engine)->InferTheta(ToBowDoc(shared.dataset.test.doc(0))).ok());

  // Two failed batches (no retries configured) trip the breaker.
  util::FaultSpec spec;
  spec.every_nth = 1;
  spec.max_fires = 2;
  util::FaultInjector::Global().Arm("serve.batch", spec);
  for (int i = 1; i <= 2; ++i) {
    InferenceEngine::ThetaResult failed =
        (*engine)->InferTheta(ToBowDoc(shared.dataset.test.doc(i)));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), util::StatusCode::kUnavailable);
  }
  EXPECT_EQ((*engine)->health(), InferenceEngine::HealthState::kDegraded);

  // Degraded mode: cache hits and the frozen top-word lists still serve.
  InferenceEngine::ThetaResult cached =
      (*engine)->InferTheta(ToBowDoc(shared.dataset.test.doc(0)));
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_TRUE(BitwiseEqual(*cached, shared.etm_theta, 0));
  EXPECT_TRUE((*engine)->TopicTopWords(0, 5).ok());

  // ...but a miss fast-fails without touching the model.
  const int64_t batches_before = (*engine)->stats().batches;
  InferenceEngine::ThetaResult denied =
      (*engine)->InferTheta(ToBowDoc(shared.dataset.test.doc(3)));
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ((*engine)->stats().batches, batches_before);
  EXPECT_EQ((*engine)->stats().degraded, 1);

  // The next miss is the probe (probe_interval = 2); the fault schedule
  // is exhausted, so it succeeds and closes the breaker.
  InferenceEngine::ThetaResult probe =
      (*engine)->InferTheta(ToBowDoc(shared.dataset.test.doc(4)));
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_TRUE(BitwiseEqual(*probe, shared.etm_theta, 4));
  EXPECT_EQ((*engine)->health(), InferenceEngine::HealthState::kHealthy);
}

TEST(ServeTest, DegradedTopicTopWordsIsPrecisionInvariant) {
  // While the breaker is open, TopicTopWords answers from the
  // checkpoint's frozen fp32-derived id lists -- so a degraded engine
  // gives the identical ranked words at every serving precision.
  ServeFixture& shared = Shared();
  std::vector<std::vector<std::string>> want;  // healthy fp32 answers
  {
    auto engine = InferenceEngine::Load(shared.etm_checkpoint);
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (int t = 0; t < (*engine)->num_topics(); ++t) {
      auto words = (*engine)->TopicTopWords(t, 10);
      ASSERT_TRUE(words.ok()) << words.status();
      want.push_back(std::move(words).value());
    }
  }
  for (tensor::ServePrecision p :
       {tensor::ServePrecision::kFp32, tensor::ServePrecision::kBf16,
        tensor::ServePrecision::kInt8}) {
    FaultGuard guard;
    InferenceEngine::Options options;
    options.precision = p;
    options.cache_capacity = 0;
    options.breaker.failure_threshold = 2;
    auto engine = InferenceEngine::Load(shared.etm_checkpoint, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    util::FaultSpec spec;
    spec.every_nth = 1;
    spec.max_fires = 2;
    util::FaultInjector::Global().Arm("serve.batch", spec);
    for (int i = 0; i < 2; ++i) {
      ASSERT_FALSE(
          (*engine)->InferTheta(ToBowDoc(shared.dataset.test.doc(i))).ok());
    }
    ASSERT_EQ((*engine)->health(), InferenceEngine::HealthState::kDegraded)
        << tensor::ServePrecisionName(p);
    for (int t = 0; t < (*engine)->num_topics(); ++t) {
      auto words = (*engine)->TopicTopWords(t, 10);
      ASSERT_TRUE(words.ok()) << words.status();
      EXPECT_EQ(want[static_cast<size_t>(t)], *words)
          << "topic " << t << " at " << tensor::ServePrecisionName(p);
    }
  }
}

TEST(ServeTest, HealthAccessorTracksBreakerStates) {
  ServeFixture& shared = Shared();
  auto engine = InferenceEngine::Load(shared.etm_checkpoint);
  ASSERT_TRUE(engine.ok());
  CircuitBreaker& breaker = (*engine)->breaker();
  EXPECT_EQ((*engine)->health(), InferenceEngine::HealthState::kHealthy);
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();  // default threshold
  EXPECT_EQ((*engine)->health(), InferenceEngine::HealthState::kDegraded);
  for (int i = 0; i < 8; ++i) breaker.AllowRequest();  // default probe cycle
  EXPECT_EQ((*engine)->health(), InferenceEngine::HealthState::kRecovering);
  breaker.RecordSuccess();
  breaker.RecordSuccess();
  EXPECT_EQ((*engine)->health(), InferenceEngine::HealthState::kHealthy);
}

}  // namespace
}  // namespace serve
}  // namespace contratopic
