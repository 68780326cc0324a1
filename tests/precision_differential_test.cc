// Differential tolerance harness for the mixed-precision serving tier
// (tensor/quant.h, DESIGN.md §15). The contract has two halves, and this
// file pins both:
//
//   * WITHIN a precision, results are bitwise identical across kernel
//     backends and thread counts -- the quantized GEMMs follow the same
//     canonical-order rules as the fp32 kernels.
//     Randomized shapes x {bf16, int8} x {scalar, best-supported} x
//     {1, 4} threads gives a few hundred configurations per full run.
//
//   * ACROSS precisions, fp32 stays bitwise-unchanged (the quantized
//     paths must not perturb it), theta stays inside the documented
//     tolerance (bf16 L-inf <= kBf16ThetaTol, int8 <= kInt8ThetaTol),
//     and ranked top-words from a serving engine are invariant: they are
//     answered from the checkpoint's exact fp32-derived id lists.
//
// The GEMM-level tolerance checks use analytic error bounds derived from
// the quantization step sizes, not hand-tuned constants: bf16 rounds each
// weight to 8 mantissa bits (relative error <= 2^-8 per product), and
// int8's per-row symmetric scheme loses at most half a step per operand.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "embed/word_embeddings.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "tensor/backend.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "text/corpus.h"
#include "text/synthetic.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace contratopic {
namespace tensor {
namespace {

// Documented model-level theta tolerances (L-inf against fp32 theta on
// the same documents). DESIGN.md §15 quotes these numbers; tightening
// them requires re-measuring, loosening them requires a design review.
constexpr float kBf16ThetaTol = 0.05f;
constexpr float kInt8ThetaTol = 0.15f;

uint32_t BitsOf(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void ExpectBitwise(const Tensor& want, const Tensor& got,
                   const std::string& what) {
  ASSERT_TRUE(want.same_shape(got))
      << what << ": " << want.ShapeString() << " vs " << got.ShapeString();
  for (int64_t i = 0; i < want.numel(); ++i) {
    if (std::isnan(want.data()[i]) && std::isnan(got.data()[i])) continue;
    ASSERT_EQ(BitsOf(want.data()[i]), BitsOf(got.data()[i]))
        << what << " differs at flat index " << i << ": "
        << want.data()[i] << " vs " << got.data()[i];
  }
}

// Scalar backend at 1 thread produces the canonical bits; every supported
// backend at 1 and 4 threads must reproduce them exactly.
void ExpectBackendInvariant(const std::function<Tensor()>& fn,
                            const std::string& what) {
  util::ThreadPool::SetGlobalNumThreads(1);
  Tensor want;
  {
    ScopedKernelBackend scalar(KernelBackendKind::kScalar);
    want = fn();
  }
  for (KernelBackendKind kind : SupportedBackends()) {
    ScopedKernelBackend scoped(kind);
    for (int threads : {1, 4}) {
      util::ThreadPool::SetGlobalNumThreads(threads);
      const Tensor got = fn();
      ExpectBitwise(want, got,
                    what + " [" + KernelBackendName(kind) + ", " +
                        std::to_string(threads) + " threads]");
      if (::testing::Test::HasFatalFailure()) {
        util::ThreadPool::SetGlobalNumThreads(0);
        return;
      }
    }
  }
  util::ThreadPool::SetGlobalNumThreads(0);
}

Tensor RandomTensor(util::Rng& rng, int64_t rows, int64_t cols,
                    float scale = 3.0f) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.Normal(0.0, scale));
  }
  return t;
}

int64_t RandDim(util::Rng& rng, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  rng.UniformInt(static_cast<uint64_t>(hi - lo + 1)));
}

// ---------------------------------------------------------------------------
// Within-precision bitwise invariance of the quantized GEMMs: random
// (m, k, n) draws, with and without bias, one draw large enough to take
// the threaded row split. 14 draws x 2 precisions x |backends| x 2
// thread counts (+ canon runs) ~ a few hundred configurations.
// ---------------------------------------------------------------------------

TEST(PrecisionDifferentialTest, QuantizedGemmsBackendAndThreadInvariant) {
  util::Rng rng(811);
  for (int iter = 0; iter < 14; ++iter) {
    int64_t m, k, n;
    if (iter == 13) {
      // 64 * 260 * 260 > 2^22 flops: the ParallelOverRows path.
      m = 64;
      k = 260;
      n = 260;
    } else {
      m = RandDim(rng, 1, 40);
      k = RandDim(rng, 1, 200);
      n = RandDim(rng, 1, 90);
    }
    const Tensor x = RandomTensor(rng, m, k);
    const Tensor wt = RandomTensor(rng, n, k);  // packed transposed
    const Tensor bias = RandomTensor(rng, 1, n, 0.5f);
    const float* b = iter % 2 == 0 ? bias.data() : nullptr;
    // Quantize under the scalar backend once; the packed forms feed every
    // run so the GEMMs (not the codecs) are what varies.
    Bf16Matrix wb;
    Int8Matrix wq;
    {
      ScopedKernelBackend scalar(KernelBackendKind::kScalar);
      wb = Bf16FromTensor(wt);
      wq = Int8FromTensor(wt);
    }
    ExpectBackendInvariant([&] { return MatMulBf16T(x, wb, b); },
                           "MatMulBf16T iter " + std::to_string(iter));
    if (::testing::Test::HasFatalFailure()) return;
    ExpectBackendInvariant([&] { return MatMulInt8T(x, wq, b); },
                           "MatMulInt8T iter " + std::to_string(iter));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PrecisionDifferentialTest, QuantizersBackendInvariant) {
  // The codecs themselves (bf16 encode/decode, per-row absmax + int8
  // quantize) must produce identical packed bytes on every backend.
  util::Rng rng(812);
  for (int iter = 0; iter < 6; ++iter) {
    const Tensor w =
        RandomTensor(rng, RandDim(rng, 1, 60), RandDim(rng, 1, 120));
    Bf16Matrix want_b;
    Int8Matrix want_q;
    {
      ScopedKernelBackend scalar(KernelBackendKind::kScalar);
      want_b = Bf16FromTensor(w);
      want_q = Int8FromTensor(w);
    }
    for (KernelBackendKind kind : SupportedBackends()) {
      ScopedKernelBackend scoped(kind);
      const Bf16Matrix got_b = Bf16FromTensor(w);
      const Int8Matrix got_q = Int8FromTensor(w);
      ASSERT_EQ(want_b.data, got_b.data)
          << "bf16 codes differ on " << KernelBackendName(kind);
      ASSERT_EQ(want_q.data, got_q.data)
          << "int8 codes differ on " << KernelBackendName(kind);
      for (size_t r = 0; r < want_q.scales.size(); ++r) {
        ASSERT_EQ(BitsOf(want_q.scales[r]), BitsOf(got_q.scales[r]))
            << "int8 scale row " << r << " on " << KernelBackendName(kind);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-precision tolerance at the GEMM level, against analytic bounds.
// ---------------------------------------------------------------------------

TEST(PrecisionDifferentialTest, Bf16GemmWithinAnalyticBound) {
  util::Rng rng(821);
  for (int iter = 0; iter < 8; ++iter) {
    const int64_t m = RandDim(rng, 1, 30);
    const int64_t k = RandDim(rng, 2, 300);
    const int64_t n = RandDim(rng, 1, 60);
    const Tensor x = RandomTensor(rng, m, k);
    const Tensor wt = RandomTensor(rng, n, k);
    const Bf16Matrix wb = Bf16FromTensor(wt);
    const Tensor got = MatMulBf16T(x, wb, nullptr);
    for (int64_t r = 0; r < m; ++r) {
      for (int64_t o = 0; o < n; ++o) {
        // Reference dot in double; bound: each product's weight carries
        // <= 2^-8 relative rounding, plus slack for fp32 accumulation.
        double ref = 0.0, mag = 0.0;
        for (int64_t i = 0; i < k; ++i) {
          const double xi = x.at(r, i);
          const double wi = wt.at(o, i);
          ref += xi * wi;
          mag += std::abs(xi * wi);
        }
        const double bound = mag * (1.0 / 256.0) + mag * 1e-5 + 1e-4;
        ASSERT_NEAR(got.at(r, o), ref, bound)
            << "iter " << iter << " out[" << r << "," << o << "]";
      }
    }
  }
}

TEST(PrecisionDifferentialTest, Int8GemmWithinAnalyticBound) {
  util::Rng rng(822);
  for (int iter = 0; iter < 8; ++iter) {
    const int64_t m = RandDim(rng, 1, 30);
    const int64_t k = RandDim(rng, 2, 300);
    const int64_t n = RandDim(rng, 1, 60);
    const Tensor x = RandomTensor(rng, m, k);
    const Tensor wt = RandomTensor(rng, n, k);
    const Int8Matrix wq = Int8FromTensor(wt);
    const Tensor got = MatMulInt8T(x, wq, nullptr);
    for (int64_t r = 0; r < m; ++r) {
      // The activation row is quantized with its own symmetric scale.
      double x_absmax = 0.0, x_abssum = 0.0;
      for (int64_t i = 0; i < k; ++i) {
        x_absmax = std::max(x_absmax, std::abs(double{x.at(r, i)}));
        x_abssum += std::abs(double{x.at(r, i)});
      }
      const double sx = x_absmax / 127.0;
      for (int64_t o = 0; o < n; ++o) {
        const double sw = wq.scales[static_cast<size_t>(o)];
        double ref = 0.0, w_abssum = 0.0;
        for (int64_t i = 0; i < k; ++i) {
          ref += double{x.at(r, i)} * double{wt.at(o, i)};
          w_abssum += std::abs(double{wt.at(o, i)});
        }
        // |x~w~ - xw| <= (sw/2) sum|x| + (sx/2) sum|w| + k sx sw / 4,
        // plus slack for the fp32 cast of the dequantized result.
        const double bound = 0.5 * sw * x_abssum + 0.5 * sx * w_abssum +
                             static_cast<double>(k) * sx * sw * 0.25 +
                             std::abs(ref) * 1e-5 + 1e-4;
        ASSERT_NEAR(got.at(r, o), ref, bound)
            << "iter " << iter << " out[" << r << "," << o << "]";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Model-level: a trained tiny model served at each precision.
// ---------------------------------------------------------------------------

struct PrecisionFixture {
  text::SyntheticDataset dataset;
  embed::WordEmbeddings embeddings;
  std::unique_ptr<topicmodel::TopicModel> etm;
  // The ambient precision before any scopes (fp32 unless the suite runs
  // under a CT_SERVE_PRECISION override, which CI's env matrix does).
  ServePrecision startup_precision;
  Tensor fp32_theta;  // InferTheta over the test split, explicit fp32

  PrecisionFixture()
      : dataset(text::GenerateSynthetic(text::Preset20NG(0.15))),
        embeddings(embed::WordEmbeddings::Train(dataset.train, [] {
          embed::EmbeddingConfig c;
          c.dimension = 24;
          return c;
        }())) {
    startup_precision = ActiveServePrecision();
    topicmodel::TrainConfig config;
    config.num_topics = 8;
    config.epochs = 3;
    config.batch_size = 128;
    config.encoder_hidden = 32;
    config.encoder_layers = 1;
    etm = core::CreateModel("etm", config, embeddings);
    etm->Train(dataset.train);
    ScopedServePrecision fp32_scope(ServePrecision::kFp32);
    fp32_theta = etm->InferTheta(dataset.test);
  }
};

PrecisionFixture& Shared() {
  static PrecisionFixture* fixture = new PrecisionFixture();
  return *fixture;
}

float MaxAbsDelta(const Tensor& a, const Tensor& b) {
  CHECK(a.same_shape(b));
  float worst = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

TEST(PrecisionDifferentialTest, Fp32PathIsBitwiseUnchangedByTheTier) {
  // The default (unscoped) path must match an explicit fp32 scope bit for
  // bit: the quantized tier may not perturb fp32 serving. (The golden
  // checkpoint suite pins the same bits against a committed fixture, so
  // this also holds against history, not just within the process.) Only
  // meaningful when the ambient default *is* fp32 -- under the env
  // matrix's CT_SERVE_PRECISION overrides the default path is the
  // overridden precision by design.
  PrecisionFixture& shared = Shared();
  if (shared.startup_precision != ServePrecision::kFp32) {
    GTEST_SKIP() << "CT_SERVE_PRECISION overrides the default path";
  }
  const Tensor theta = shared.etm->InferTheta(shared.dataset.test);
  ExpectBitwise(shared.fp32_theta, theta, "fp32 theta via default path");
}

TEST(PrecisionDifferentialTest, ThetaWithinDocumentedTolerance) {
  PrecisionFixture& shared = Shared();
  Tensor bf16_theta, int8_theta;
  {
    ScopedServePrecision scoped(ServePrecision::kBf16);
    bf16_theta = shared.etm->InferTheta(shared.dataset.test);
  }
  {
    ScopedServePrecision scoped(ServePrecision::kInt8);
    int8_theta = shared.etm->InferTheta(shared.dataset.test);
  }
  const float bf16_delta = MaxAbsDelta(shared.fp32_theta, bf16_theta);
  const float int8_delta = MaxAbsDelta(shared.fp32_theta, int8_theta);
  RecordProperty("bf16_theta_max_abs_delta", std::to_string(bf16_delta));
  RecordProperty("int8_theta_max_abs_delta", std::to_string(int8_delta));
  EXPECT_LE(bf16_delta, kBf16ThetaTol);
  EXPECT_LE(int8_delta, kInt8ThetaTol);
  // Reduced-precision theta rows are still distributions: the trailing
  // softmax runs in fp32 on whatever the quantized encoder produced.
  for (const Tensor* theta : {&bf16_theta, &int8_theta}) {
    for (int64_t r = 0; r < theta->rows(); ++r) {
      double sum = 0.0;
      for (int64_t c = 0; c < theta->cols(); ++c) {
        ASSERT_GE(theta->at(r, c), 0.0f);
        sum += theta->at(r, c);
      }
      ASSERT_NEAR(sum, 1.0, 1e-4) << "row " << r;
    }
  }
}

TEST(PrecisionDifferentialTest, ModelThetaBackendAndThreadInvariant) {
  // The full encoder path (quantized GEMMs + fp32 activations/softmax)
  // must produce identical bits on every backend and thread count,
  // per precision.
  PrecisionFixture& shared = Shared();
  for (ServePrecision p :
       {ServePrecision::kBf16, ServePrecision::kInt8}) {
    ScopedServePrecision scoped(p);
    ExpectBackendInvariant(
        [&] { return shared.etm->InferTheta(shared.dataset.test); },
        std::string("InferTheta at ") + ServePrecisionName(p));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PrecisionDifferentialTest, EngineTopWordsInvariantAcrossPrecisions) {
  // Serving answers TopicTopWords from the checkpoint's exact id lists,
  // so the ranked words are invariant by construction -- across the
  // engine's precision option AND across checkpoint storage formats.
  PrecisionFixture& shared = Shared();
  const std::string fp32_path =
      ::testing::TempDir() + "/precision_fp32.ckpt";
  ASSERT_TRUE(serve::SaveCheckpoint(*shared.etm, shared.dataset.train.vocab(),
                                    fp32_path)
                  .ok());

  std::vector<std::vector<std::string>> want;  // from the fp32 engine
  {
    auto engine = serve::InferenceEngine::Load(fp32_path);
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (int t = 0; t < (*engine)->num_topics(); ++t) {
      auto words = (*engine)->TopicTopWords(t, 10);
      ASSERT_TRUE(words.ok()) << words.status();
      want.push_back(std::move(words).value());
    }
  }

  struct Leg {
    std::string path;
    ServePrecision precision;
  };
  std::vector<Leg> legs = {{fp32_path, ServePrecision::kBf16},
                           {fp32_path, ServePrecision::kInt8}};
  for (ServePrecision storage :
       {ServePrecision::kBf16, ServePrecision::kInt8}) {
    const std::string path = ::testing::TempDir() + "/precision_" +
                             ServePrecisionName(storage) + ".ckpt";
    ASSERT_TRUE(serve::SaveQuantizedCheckpoint(
                    *shared.etm, shared.dataset.train.vocab(), path, storage)
                    .ok());
    legs.push_back({path, storage});
  }
  for (const Leg& leg : legs) {
    serve::InferenceEngine::Options options;
    options.precision = leg.precision;
    auto engine = serve::InferenceEngine::Load(leg.path, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (int t = 0; t < (*engine)->num_topics(); ++t) {
      auto words = (*engine)->TopicTopWords(t, 10);
      ASSERT_TRUE(words.ok()) << words.status();
      EXPECT_EQ(want[static_cast<size_t>(t)], *words)
          << "topic " << t << " from " << leg.path << " at "
          << ServePrecisionName(leg.precision);
    }
  }
}

TEST(PrecisionDifferentialTest, EnginePrecisionOptionBoundsTheta) {
  // An engine pinned to a reduced precision serves theta within the same
  // documented tolerance of the fp32 engine's answers.
  PrecisionFixture& shared = Shared();
  const std::string path =
      ::testing::TempDir() + "/precision_option.ckpt";
  ASSERT_TRUE(serve::SaveCheckpoint(*shared.etm, shared.dataset.train.vocab(),
                                    path)
                  .ok());
  auto fp32_engine = serve::InferenceEngine::Load(path);
  ASSERT_TRUE(fp32_engine.ok()) << fp32_engine.status();

  struct Leg {
    ServePrecision precision;
    float tol;
  };
  for (const Leg& leg : {Leg{ServePrecision::kBf16, kBf16ThetaTol},
                         Leg{ServePrecision::kInt8, kInt8ThetaTol}}) {
    serve::InferenceEngine::Options options;
    options.precision = leg.precision;
    auto engine = serve::InferenceEngine::Load(path, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    const int n = std::min(16, shared.dataset.test.num_docs());
    for (int i = 0; i < n; ++i) {
      const text::Document& doc = shared.dataset.test.doc(i);
      if (doc.entries.empty()) continue;
      serve::InferenceEngine::BowDoc bow;
      for (const auto& e : doc.entries) bow.emplace_back(e.word_id, e.count);
      auto want = (*fp32_engine)->InferTheta(bow);
      auto got = (*engine)->InferTheta(bow);
      ASSERT_TRUE(want.ok()) << want.status();
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(want->size(), got->size());
      for (size_t k = 0; k < want->size(); ++k) {
        ASSERT_NEAR((*want)[k], (*got)[k], leg.tol)
            << "doc " << i << " topic " << k << " at "
            << ServePrecisionName(leg.precision);
      }
    }
  }
}

TEST(PrecisionDifferentialTest, QuantizedCheckpointsAreSmaller) {
  PrecisionFixture& shared = Shared();
  const text::Vocabulary& vocab = shared.dataset.train.vocab();
  auto file_size = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    CHECK(static_cast<bool>(in)) << path;
    return static_cast<int64_t>(in.tellg());
  };
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(
      serve::SaveCheckpoint(*shared.etm, vocab, dir + "/size_fp32.ckpt")
          .ok());
  ASSERT_TRUE(serve::SaveQuantizedCheckpoint(*shared.etm, vocab,
                                             dir + "/size_bf16.ckpt",
                                             ServePrecision::kBf16)
                  .ok());
  ASSERT_TRUE(serve::SaveQuantizedCheckpoint(*shared.etm, vocab,
                                             dir + "/size_int8.ckpt",
                                             ServePrecision::kInt8)
                  .ok());
  const int64_t fp32 = file_size(dir + "/size_fp32.ckpt");
  const int64_t bf16 = file_size(dir + "/size_bf16.ckpt");
  const int64_t int8 = file_size(dir + "/size_int8.ckpt");
  RecordProperty("fp32_bytes", std::to_string(fp32));
  RecordProperty("bf16_bytes", std::to_string(bf16));
  RecordProperty("int8_bytes", std::to_string(int8));
  // The vocab strings and small fp32 tensors dilute the ratio, so the
  // gates are looser than the raw 2x / 4x of the tensor payloads.
  EXPECT_LT(bf16, fp32 * 3 / 4);
  EXPECT_LT(int8, fp32 / 2);
}

TEST(PrecisionDifferentialTest, QuantizedCheckpointRoundTripsTheta) {
  // Restoring a quantized checkpoint dequantizes to fp32; serving it at
  // fp32 must stay within the storage precision's documented tolerance
  // of the original model (storage error only, no compute error).
  PrecisionFixture& shared = Shared();
  struct Leg {
    ServePrecision storage;
    float tol;
  };
  for (const Leg& leg : {Leg{ServePrecision::kBf16, kBf16ThetaTol},
                         Leg{ServePrecision::kInt8, kInt8ThetaTol}}) {
    // "precision_" prefix keeps these paths disjoint from the model-zoo
    // round-trip tests sharing TempDir().
    const std::string path = ::testing::TempDir() + "/precision_roundtrip_" +
                             ServePrecisionName(leg.storage) + ".ckpt";
    ASSERT_TRUE(serve::SaveQuantizedCheckpoint(
                    *shared.etm, shared.dataset.train.vocab(), path,
                    leg.storage)
                    .ok());
    auto ckpt = serve::ReadCheckpoint(path);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status();
    EXPECT_EQ(ckpt->storage_precision, leg.storage);
    auto model = serve::RestoreModel(*ckpt);
    ASSERT_TRUE(model.ok()) << model.status();
    const Tensor theta = (*model)->InferTheta(shared.dataset.test);
    const float delta = MaxAbsDelta(shared.fp32_theta, theta);
    RecordProperty(std::string(ServePrecisionName(leg.storage)) +
                       "_restore_theta_max_abs_delta",
                   std::to_string(delta));
    EXPECT_LE(delta, leg.tol) << ServePrecisionName(leg.storage);
  }
}

TEST(PrecisionDifferentialTest, QuantizedCheckpointRefusesTrainingState) {
  // Serving-only by contract: quantized storage + training state must be
  // refused at write time (resumed training stays fp32-bitwise).
  PrecisionFixture& shared = Shared();
  auto ckpt = serve::BuildCheckpoint(*shared.etm,
                                     shared.dataset.train.vocab());
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  ckpt->has_training_state = true;
  ckpt->storage_precision = ServePrecision::kInt8;
  const util::Status status = serve::WriteCheckpoint(
      *ckpt, ::testing::TempDir() + "/refused.ckpt");
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
}

}  // namespace
}  // namespace tensor
}  // namespace contratopic
