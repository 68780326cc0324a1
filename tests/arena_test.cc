// Tests for the training arena (tensor/arena.h, DESIGN.md §14): the
// BufferPool's size classes and bookkeeping, buffer recycling under an
// installed pool, and the end-to-end claim that a training run recycles
// its step-shaped buffers instead of allocating them from the heap.
//
// The suite name is load-bearing: the sanitizer CI leg selects it via
// `ctest -R ... ArenaTest`.

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/contratopic.h"
#include "embed/word_embeddings.h"
#include "tensor/arena.h"
#include "tensor/autodiff.h"
#include "tensor/tensor.h"
#include "text/synthetic.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace contratopic {
namespace {

using autodiff::Var;
using tensor::Tensor;

Tensor RandomTensor(util::Rng& rng, int64_t rows, int64_t cols) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.Uniform() * 4.0 - 2.0);
  }
  return t;
}

TEST(ArenaTest, RoundsCapacitiesToTheSizeClass) {
  // Linear 16-float classes up to the limit, then power-of-two doubling
  // (so large shapes that drift step to step still share buckets).
  EXPECT_EQ(tensor::BufferSizeClass(1), 16u);
  EXPECT_EQ(tensor::BufferSizeClass(17), 32u);
  EXPECT_EQ(tensor::BufferSizeClass(tensor::kBufferClassLinearLimitFloats),
            tensor::kBufferClassLinearLimitFloats);
  EXPECT_EQ(tensor::BufferSizeClass(tensor::kBufferClassLinearLimitFloats + 1),
            2 * tensor::kBufferClassLinearLimitFloats);
  EXPECT_EQ(tensor::BufferSizeClass(250000), 262144u);
  tensor::BufferPool pool;
  for (size_t n : {1ul, 5ul, 16ul, 17ul, 100ul, 1000ul, 5000ul, 250000ul}) {
    std::vector<float> buf = pool.AcquireZero(n);
    EXPECT_EQ(buf.size(), n);
    EXPECT_GE(buf.capacity(), n);
    EXPECT_EQ(buf.capacity() % tensor::kBufferAlignFloats, 0u)
        << "capacity " << buf.capacity() << " for n=" << n;
    for (float v : buf) EXPECT_EQ(v, 0.0f);
    pool.Release(std::move(buf));
  }
  // Two different large sizes in one geometric class recycle one buffer.
  std::vector<float> big = pool.AcquireZero(5000);
  const float* raw = big.data();
  pool.Release(std::move(big));
  std::vector<float> reused = pool.AcquireZero(7000);
  EXPECT_EQ(reused.data(), raw);
  EXPECT_EQ(reused.size(), 7000u);
  for (float v : reused) EXPECT_EQ(v, 0.0f);
}

TEST(ArenaTest, ReusesReleasedBuffers) {
  tensor::BufferPool pool;
  std::vector<float> a = pool.AcquireZero(100);
  const float* ptr = a.data();
  EXPECT_EQ(pool.misses(), 1u);
  pool.Release(std::move(a));
  // Same size class: the exact buffer comes back, zeroed.
  std::vector<float> b = pool.AcquireZero(97);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(b.data(), ptr);
  for (float v : b) EXPECT_EQ(v, 0.0f);
  pool.Release(std::move(b));
}

TEST(ArenaTest, TracksOutstandingAndPeakBytes) {
  tensor::BufferPool pool;
  std::vector<float> a = pool.AcquireZero(16);
  std::vector<float> b = pool.AcquireZero(32);
  EXPECT_EQ(pool.outstanding_bytes(), (16 + 32) * sizeof(float));
  pool.Release(std::move(a));
  EXPECT_EQ(pool.outstanding_bytes(), 32 * sizeof(float));
  EXPECT_EQ(pool.peak_outstanding_bytes(), (16 + 32) * sizeof(float));
  pool.Release(std::move(b));
  EXPECT_EQ(pool.outstanding_bytes(), 0u);
}

TEST(ArenaTest, NeverAliasesTwoLiveNodeBuffers) {
  tensor::BufferPool pool;
  tensor::BufferPool* prev = tensor::InstallThreadBufferPool(&pool);
  {
    util::Rng rng(11);
    Var x = Var::Leaf(RandomTensor(rng, 6, 8), /*requires_grad=*/true);
    Var y = Var::Constant(RandomTensor(rng, 6, 8));
    // Every intermediate is held in a Var, so all stay live at once.
    Var a = autodiff::Add(x, y);
    Var b = autodiff::Mul(a, y);
    Var c = autodiff::Exp(autodiff::MulScalar(b, 0.25f));
    Var d = autodiff::SoftmaxRows(c);
    Var loss = autodiff::SumAll(d);
    autodiff::Backward(loss);
    std::set<const float*> buffers;
    for (const Var* v : {&x, &y, &a, &b, &c, &d, &loss}) {
      EXPECT_FALSE(v->value().empty());
      EXPECT_TRUE(buffers.insert(v->value().data()).second)
          << "two live nodes share a buffer";
    }
    EXPECT_TRUE(buffers.insert(x.grad().data()).second)
        << "a leaf gradient shares a live node's buffer";
  }
  tensor::InstallThreadBufferPool(prev);
}

TEST(ArenaTest, RecyclesBuffersAcrossSteps) {
  tensor::BufferPool pool;
  tensor::BufferPool* prev = tensor::InstallThreadBufferPool(&pool);
  util::Rng rng(12);
  const Tensor input = RandomTensor(rng, 16, 16);
  for (int step = 0; step < 3; ++step) {
    Var x = Var::Leaf(input, /*requires_grad=*/true);
    Var loss =
        autodiff::SumAll(autodiff::SoftmaxRows(autodiff::MulScalar(x, 2.0f)));
    autodiff::Backward(loss);
  }
  tensor::InstallThreadBufferPool(prev);
  // After warmup, step-shaped buffers come from the pool, not the heap.
  EXPECT_GT(pool.hits(), 0u);
  EXPECT_GT(pool.hits(), pool.misses());
}

TEST(ArenaTest, TrainingRecyclesBuffersAfterTheFirstEpoch) {
  // One pool thread keeps every allocation on the training thread, where
  // the arena is installed (worker-thread tensors use the heap).
  util::ThreadPool::SetGlobalNumThreads(1);
  const text::SyntheticConfig config = text::Preset20NG(0.1);
  const text::SyntheticDataset dataset = text::GenerateSynthetic(config);
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
  tc.epochs = 3;
  tc.batch_size = 32;
  tc.encoder_hidden = 32;
  tc.encoder_layers = 1;
  auto model = core::MakeContraTopicEtm(tc, embeddings);
  // The pool is cold during the first epoch; count from its end.
  tensor::AllocStats warm;
  int epoch_boundaries = 0;
  model->SetAutoCheckpoint(
      /*every_steps=*/0, [&](const topicmodel::TrainingState&) {
        if (++epoch_boundaries == 1) warm = tensor::GlobalAllocStats();
        return util::Status::OK();
      });
  const topicmodel::TrainStats stats = model->Train(dataset.train);
  const tensor::AllocStats done = tensor::GlobalAllocStats();
  util::ThreadPool::SetGlobalNumThreads(0);
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
  ASSERT_GE(epoch_boundaries, 1);

  const int steps =
      (tc.epochs - 1) * (dataset.train.num_docs() / tc.batch_size);
  ASSERT_GT(steps, 0);
  const double heap_per_step =
      static_cast<double>(done.heap_allocs - warm.heap_allocs) / steps;
  const double hits_per_step =
      static_cast<double>(done.pool_hits - warm.pool_hits) / steps;
  EXPECT_GT(hits_per_step, 0.0);
  EXPECT_GE(hits_per_step, 10.0 * heap_per_step)
      << "pool hits/step " << hits_per_step << ", heap allocs/step "
      << heap_per_step;
}

}  // namespace
}  // namespace contratopic
