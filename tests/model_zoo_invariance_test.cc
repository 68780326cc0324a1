// Cross-model invariance harness (model-zoo expansion ISSUE, satellite
// #1): every neural model in the zoo — including the new CLNTM / TSCTM
// contrastive members and the multi-objective (MOO) weighting mode — must
// honor the same determinism contracts the seed established one model at
// a time:
//
//   * thread-count invariance (DESIGN.md "Parallelism & determinism"),
//   * SIMD-backend invariance (scalar vs. the best supported backend).
//
// Each model trains 2 epochs on the 20NG-sim preset under a grid of
// {threads} x {backend} variants; loss, beta, and test theta must be
// bitwise identical to the (1 thread, scalar) reference. Gibbs LDA is
// excluded: it is not a NeuralTopicModel, so the backend axis does not
// apply.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "embed/word_embeddings.h"
#include "tensor/backend.h"
#include "text/synthetic.h"
#include "topicmodel/neural_base.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace contratopic {
namespace {

using tensor::Tensor;

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.same_shape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

struct ZooRun {
  float final_loss = 0.0f;
  Tensor beta;
  Tensor theta;
};

struct Variant {
  int threads = 1;
  tensor::KernelBackendKind backend = tensor::KernelBackendKind::kScalar;
};

std::string VariantName(const Variant& v) {
  return "threads=" + std::to_string(v.threads) +
         " backend=" + std::string(tensor::KernelBackendName(v.backend));
}

// One from-scratch training run: corpus, embeddings, training, and
// inference all execute under the requested variant, so the invariance
// claim covers the whole pipeline, not just the step loop.
ZooRun TrainZoo(const std::string& model_name, const Variant& variant,
                topicmodel::LossWeighting weighting) {
  tensor::ScopedKernelBackend scoped_backend(variant.backend);
  util::ThreadPool::SetGlobalNumThreads(variant.threads);

  const text::SyntheticConfig config = text::Preset20NG(0.1);
  text::SyntheticDataset dataset = text::GenerateSynthetic(config);
  const text::BowCorpus reference =
      text::GenerateReferenceCorpus(config, dataset.train.vocab());
  const embed::WordEmbeddings embeddings =
      embed::WordEmbeddings::Train(reference, [] {
        embed::EmbeddingConfig c;
        c.dimension = 16;
        return c;
      }());

  topicmodel::TrainConfig tc;
  tc.num_topics = 8;
  tc.epochs = 2;
  tc.batch_size = 128;
  tc.encoder_hidden = 32;
  tc.encoder_layers = 1;
  auto model = core::CreateModel(model_name, tc, embeddings);
  auto* neural = dynamic_cast<topicmodel::NeuralTopicModel*>(model.get());
  CHECK(neural != nullptr) << model_name;
  neural->SetLossWeighting(weighting);

  const topicmodel::TrainStats stats = model->Train(dataset.train);
  CHECK(stats.status.ok()) << stats.status.ToString();

  ZooRun run;
  run.final_loss = static_cast<float>(stats.final_loss);
  run.beta = model->Beta();
  run.theta = model->InferTheta(dataset.test);
  util::ThreadPool::SetGlobalNumThreads(0);
  return run;
}

void ExpectVariantGridInvariant(const std::string& model_name,
                                topicmodel::LossWeighting weighting) {
  const Variant reference_variant;  // 1 thread, scalar
  const ZooRun reference = TrainZoo(model_name, reference_variant, weighting);
  ASSERT_GT(reference.beta.numel(), 0);

  const tensor::KernelBackendKind best = tensor::BestSupportedBackend();
  const std::vector<Variant> variants = {
      {4, tensor::KernelBackendKind::kScalar},
      {1, best},
  };
  for (const Variant& variant : variants) {
    SCOPED_TRACE(VariantName(variant));
    const ZooRun run = TrainZoo(model_name, variant, weighting);
    EXPECT_EQ(reference.final_loss, run.final_loss);
    ExpectBitwiseEqual(reference.beta, run.beta);
    ExpectBitwiseEqual(reference.theta, run.theta);
  }
}

// ---------------------------------------------------------------------------
// Thread x backend grid, fixed weighting: the full neural zoo.
// ---------------------------------------------------------------------------

class ModelZooInvarianceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelZooInvarianceTest, ThreadBackendEngineGridIsBitwiseInvariant) {
  ExpectVariantGridInvariant(GetParam(), topicmodel::LossWeighting::kFixed);
}

INSTANTIATE_TEST_SUITE_P(
    NeuralZoo, ModelZooInvarianceTest,
    ::testing::Values("prodlda", "wlda", "etm", "nstm", "wete", "ntmr",
                      "vtmrl", "clntm", "tsctm", "contratopic"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---------------------------------------------------------------------------
// The same grid under --loss-weighting=moo for the models that populate
// per-objective terms: the MOO weights are derived from canonical-order
// gradient norms, so they must not perturb any invariance axis.
// ---------------------------------------------------------------------------

class MooInvarianceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MooInvarianceTest, MooWeightingKeepsTheGridBitwiseInvariant) {
  ExpectVariantGridInvariant(GetParam(), topicmodel::LossWeighting::kMoo);
}

INSTANTIATE_TEST_SUITE_P(
    ContrastiveZoo, MooInvarianceTest,
    ::testing::Values("etm", "clntm", "tsctm", "contratopic"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---------------------------------------------------------------------------
// InferTheta's batch grid follows the pool size (neural_base.cc), so the
// same corpus is cut into different batches at 1..4 threads. Eval-mode
// forwards are row-independent, so the bits must not move: every pool size
// gives the same theta, and every row equals its document's 1-doc
// InferThetaBatch. (Gibbs LDA, the zoo's eleventh model, has no batch grid.)
// ---------------------------------------------------------------------------

class InferThetaGridTest : public ::testing::TestWithParam<std::string> {};

// A corpus of `size` documents cycling through `source`'s documents.
text::BowCorpus CycledCorpus(const text::BowCorpus& source, int size) {
  std::vector<text::Document> docs;
  for (int i = 0; i < size; ++i) {
    docs.push_back(source.doc(i % source.num_docs()));
  }
  return text::BowCorpus(source.vocab(), std::move(docs));
}

TEST_P(InferThetaGridTest, PoolSizeNeverChangesTheBits) {
  util::ThreadPool::SetGlobalNumThreads(1);
  const text::SyntheticConfig config = text::Preset20NG(0.1);
  const text::SyntheticDataset dataset = text::GenerateSynthetic(config);
  const embed::WordEmbeddings embeddings =
      embed::WordEmbeddings::Train(dataset.train, [] {
        embed::EmbeddingConfig c;
        c.dimension = 16;
        return c;
      }());
  topicmodel::TrainConfig tc;
  tc.num_topics = 8;
  tc.epochs = 1;
  tc.batch_size = 128;
  tc.encoder_hidden = 32;
  tc.encoder_layers = 1;
  auto model = core::CreateModel(GetParam(), tc, embeddings);
  auto* neural = dynamic_cast<topicmodel::NeuralTopicModel*>(model.get());
  ASSERT_NE(neural, nullptr);
  const topicmodel::TrainStats stats = model->Train(dataset.train);
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();

  const text::BowCorpus& source = dataset.test;
  std::vector<Tensor> single(source.num_docs());
  for (int d = 0; d < source.num_docs(); ++d) {
    single[d] = neural->InferThetaBatch(source.NormalizedBatch({d}));
  }
  for (const int size : {1, 3, 257, 1200}) {
    SCOPED_TRACE("corpus size " + std::to_string(size));
    const text::BowCorpus corpus = CycledCorpus(source, size);
    util::ThreadPool::SetGlobalNumThreads(1);
    const Tensor reference = model->InferTheta(corpus);
    ASSERT_EQ(reference.rows(), size);
    for (int d = 0; d < size; ++d) {
      const Tensor& want = single[d % source.num_docs()];
      for (int64_t k = 0; k < reference.cols(); ++k) {
        ASSERT_EQ(reference.at(d, k), want.at(0, k))
            << "doc " << d << " topic " << k;
      }
    }
    for (const int threads : {2, 3, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      util::ThreadPool::SetGlobalNumThreads(threads);
      ExpectBitwiseEqual(reference, model->InferTheta(corpus));
    }
  }
  util::ThreadPool::SetGlobalNumThreads(0);
}

INSTANTIATE_TEST_SUITE_P(
    NeuralZoo, InferThetaGridTest,
    ::testing::Values("prodlda", "wlda", "etm", "nstm", "wete", "ntmr",
                      "vtmrl", "clntm", "tsctm", "contratopic"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace contratopic
