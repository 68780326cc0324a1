#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace contratopic {
namespace tensor {
namespace {

// Naive reference matmul for validating the blocked kernel.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(TensorTest, ConstructionAndAccess) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.numel(), 6);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
}

TEST(TensorTest, Factories) {
  EXPECT_FLOAT_EQ(Tensor::Full(2, 2, 3.0f).at(1, 1), 3.0f);
  EXPECT_FLOAT_EQ(Tensor::Scalar(7.0f).scalar(), 7.0f);
  const Tensor eye = Tensor::Identity(3);
  EXPECT_FLOAT_EQ(eye.at(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(eye.at(0, 1), 0.0f);
}

TEST(TensorTest, Reshape) {
  Tensor t(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshaped(3, 2);
  EXPECT_EQ(r.rows(), 3);
  EXPECT_FLOAT_EQ(r.at(2, 1), 6.0f);
}

TEST(TensorTest, InPlaceOps) {
  Tensor a(1, 3, {1, 2, 3});
  Tensor b(1, 3, {10, 20, 30});
  a.AddInPlace(b);
  EXPECT_FLOAT_EQ(a.at(0, 2), 33.0f);
  a.AddScaledInPlace(b, -1.0f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 1.0f);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a.at(0, 1), 4.0f);
  a.Apply([](float v) { return v + 1.0f; });
  EXPECT_FLOAT_EQ(a.at(0, 0), 3.0f);
}

TEST(TensorTest, Reductions) {
  Tensor t(2, 2, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(t.Sum(), -2.0f);
  EXPECT_FLOAT_EQ(t.Mean(), -0.5f);
  EXPECT_FLOAT_EQ(t.MaxAbs(), 4.0f);
  EXPECT_NEAR(t.L2Norm(), std::sqrt(30.0f), 1e-5);
}

TEST(TensorTest, TopKIndices) {
  Tensor t(1, 5, {0.1f, 0.5f, 0.3f, 0.9f, 0.2f});
  const auto top = t.TopKIndicesOfRow(0, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 3);
  EXPECT_EQ(top[1], 1);
  EXPECT_EQ(top[2], 2);
}

TEST(TensorTest, TopKClampsToWidth) {
  Tensor t(1, 3, {3, 1, 2});
  EXPECT_EQ(t.TopKIndicesOfRow(0, 10).size(), 3u);
}

TEST(TensorTest, RandomFactoriesHaveRightMoments) {
  util::Rng rng(5);
  const Tensor n = Tensor::RandNormal(100, 100, rng, 2.0f, 0.5f);
  EXPECT_NEAR(n.Mean(), 2.0f, 0.02f);
  const Tensor u = Tensor::RandUniform(100, 100, rng, -1.0f, 1.0f);
  EXPECT_NEAR(u.Mean(), 0.0f, 0.02f);
}

TEST(TensorTest, AllClose) {
  Tensor a(1, 2, {1.0f, 2.0f});
  Tensor b(1, 2, {1.0f, 2.00000095f});
  EXPECT_TRUE(AllClose(a, b, 1e-5f));
  b.at(0, 1) = 2.1f;
  EXPECT_FALSE(AllClose(a, b, 1e-5f));
  EXPECT_FALSE(AllClose(a, Tensor(2, 1)));
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

TEST(KernelsTest, MatMulMatchesNaive) {
  util::Rng rng(9);
  const Tensor a = Tensor::RandNormal(17, 23, rng);
  const Tensor b = Tensor::RandNormal(23, 11, rng);
  EXPECT_TRUE(
      AllClose(MatMulNew(a, false, b, false), NaiveMatMul(a, b), 1e-3f));
}

TEST(KernelsTest, MatMulTransposeFlags) {
  util::Rng rng(10);
  const Tensor a = Tensor::RandNormal(6, 4, rng);
  const Tensor b = Tensor::RandNormal(5, 4, rng);
  // a (6x4) @ b^T (4x5).
  const Tensor expected = NaiveMatMul(a, Transposed(b));
  EXPECT_TRUE(AllClose(MatMulNew(a, false, b, true), expected, 1e-4f));
  // a^T (4x6) @ ... use a^T.
  const Tensor at = Transposed(a);
  EXPECT_TRUE(AllClose(MatMulNew(a, true, at, true),
                       NaiveMatMul(at, Transposed(at)), 1e-4f));
}

TEST(KernelsTest, MatMulAlphaBeta) {
  const Tensor a = Tensor::Ones(2, 2);
  const Tensor b = Tensor::Ones(2, 2);
  Tensor c = Tensor::Full(2, 2, 10.0f);
  MatMul(a, false, b, false, &c, /*alpha=*/0.5f, /*beta=*/1.0f);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);  // 10 + 0.5 * 2
}

TEST(KernelsTest, LargeMatMulUsesThreadsCorrectly) {
  util::Rng rng(12);
  // Big enough to cross the parallel threshold.
  const Tensor a = Tensor::RandNormal(128, 300, rng);
  const Tensor b = Tensor::RandNormal(300, 120, rng);
  EXPECT_TRUE(
      AllClose(MatMulNew(a, false, b, false), NaiveMatMul(a, b), 1e-2f));
}

TEST(KernelsTest, SoftmaxRowsSumToOne) {
  util::Rng rng(13);
  Tensor x = Tensor::RandNormal(5, 9, rng, 0.0f, 3.0f);
  const Tensor y = SoftmaxRows(x);
  for (int64_t r = 0; r < y.rows(); ++r) {
    double sum = 0.0;
    for (int64_t c = 0; c < y.cols(); ++c) {
      EXPECT_GT(y.at(r, c), 0.0f);
      sum += y.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(KernelsTest, SoftmaxIsShiftInvariantAndStable) {
  Tensor x(1, 3, {1000.0f, 1001.0f, 999.0f});
  const Tensor y = SoftmaxRows(x);
  EXPECT_FALSE(std::isnan(y.at(0, 0)));
  EXPECT_GT(y.at(0, 1), y.at(0, 0));
  Tensor shifted(1, 3, {0.0f, 1.0f, -1.0f});
  EXPECT_TRUE(AllClose(y, SoftmaxRows(shifted), 1e-5f));
}

TEST(KernelsTest, LogSoftmaxMatchesLogOfSoftmax) {
  util::Rng rng(14);
  Tensor x = Tensor::RandNormal(4, 7, rng);
  Tensor ls = x;
  LogSoftmaxRowsInPlace(&ls);
  const Tensor s = SoftmaxRows(x);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(ls.data()[i], std::log(s.data()[i]), 1e-4);
  }
}

TEST(KernelsTest, LogSumExpRowsMasked) {
  Tensor x(1, 3, {0.0f, 1.0f, 2.0f});
  Tensor mask(1, 3, {1.0f, 0.0f, 1.0f});
  Tensor out(1, 1);
  LogSumExpRows(x, &mask, &out);
  EXPECT_NEAR(out.scalar(), std::log(std::exp(0.0) + std::exp(2.0)), 1e-5);
  // Empty mask row -> -inf surrogate.
  Tensor zero_mask(1, 3);
  LogSumExpRows(x, &zero_mask, &out);
  EXPECT_LT(out.scalar(), -1e29f);
}

TEST(KernelsTest, TransposedRoundTrip) {
  util::Rng rng(15);
  const Tensor x = Tensor::RandNormal(37, 53, rng);
  EXPECT_TRUE(AllClose(Transposed(Transposed(x)), x));
  const Tensor t = Transposed(x);
  EXPECT_FLOAT_EQ(t.at(5, 7), x.at(7, 5));
}

TEST(KernelsTest, TransposedMatchesTheElementDefinition) {
  util::Rng rng(16);
  // Row and column vectors, shapes off the 32-wide block grid, a shape
  // large enough to split across the pool, and no rows at all.
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 70}, {70, 1}, {33, 65}, {300, 97}, {0, 5}};
  for (const auto& [rows, cols] : shapes) {
    SCOPED_TRACE(testing::Message() << rows << "x" << cols);
    const Tensor x = Tensor::RandNormal(rows, cols, rng);
    const Tensor t = Transposed(x);
    ASSERT_EQ(t.rows(), cols);
    ASSERT_EQ(t.cols(), rows);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        ASSERT_EQ(t.at(c, r), x.at(r, c)) << "(" << r << ", " << c << ")";
      }
    }
  }
}

TEST(KernelsTest, GatherSquareMatchesTheElementDefinition) {
  util::Rng rng(17);
  const Tensor x = Tensor::RandNormal(40, 40, rng);
  const std::vector<int> words = {39, 0, 7, 7, 21};
  const Tensor sub = GatherSquare(x, words);
  ASSERT_EQ(sub.rows(), 5);
  ASSERT_EQ(sub.cols(), 5);
  for (size_t a = 0; a < words.size(); ++a) {
    for (size_t b = 0; b < words.size(); ++b) {
      EXPECT_EQ(sub.at(a, b), x.at(words[a], words[b]));
    }
  }
  EXPECT_EQ(GatherSquare(x, {}).numel(), 0);
  EXPECT_DEATH(GatherSquare(x, {3, 40}), "Check failed");
}

TEST(KernelsTest, RowColReductions) {
  Tensor x(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor rs = RowSum(x);
  EXPECT_FLOAT_EQ(rs.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(rs.at(1, 0), 15.0f);
  const Tensor cs = ColSum(x);
  EXPECT_FLOAT_EQ(cs.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(cs.at(0, 2), 9.0f);
  const Tensor cm = ColMean(x);
  EXPECT_FLOAT_EQ(cm.at(0, 1), 3.5f);
}

TEST(KernelsTest, BroadcastColAndRow) {
  Tensor a(2, 2, {1, 2, 3, 4});
  Tensor col(2, 1, {10, 100});
  Tensor out(2, 2);
  BroadcastCol(a, col, BinaryOp::kAdd, &out);
  EXPECT_FLOAT_EQ(out.at(0, 1), 12.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 103.0f);
  BroadcastCol(a, col, BinaryOp::kMul, &out);
  EXPECT_FLOAT_EQ(out.at(1, 1), 400.0f);

  Tensor row(1, 2, {2, 4});
  BroadcastRow(a, row, BinaryOp::kDiv, &out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 1.0f);
  BroadcastRow(a, row, BinaryOp::kSub, &out);
  EXPECT_FLOAT_EQ(out.at(0, 1), -2.0f);
}

TEST(KernelsTest, RowL2Normalized) {
  Tensor x(2, 2, {3, 4, 0, 0});
  const Tensor n = RowL2Normalized(x);
  EXPECT_NEAR(n.at(0, 0), 0.6f, 1e-6);
  EXPECT_NEAR(n.at(0, 1), 0.8f, 1e-6);
  // Zero row stays zero.
  EXPECT_FLOAT_EQ(n.at(1, 0), 0.0f);
}

TEST(KernelsTest, PairwiseSquaredDistances) {
  Tensor a(2, 2, {0, 0, 1, 1});
  Tensor b(1, 2, {3, 4});
  const Tensor d = PairwiseSquaredDistances(a, b);
  EXPECT_NEAR(d.at(0, 0), 25.0f, 1e-4);
  EXPECT_NEAR(d.at(1, 0), 13.0f, 1e-4);
}

TEST(KernelsTest, PairwiseCosineBounds) {
  util::Rng rng(16);
  const Tensor a = Tensor::RandNormal(10, 6, rng);
  const Tensor c = PairwiseCosine(a, a);
  for (int64_t i = 0; i < c.rows(); ++i) {
    EXPECT_NEAR(c.at(i, i), 1.0f, 1e-4);
    for (int64_t j = 0; j < c.cols(); ++j) {
      EXPECT_LE(std::fabs(c.at(i, j)), 1.0f + 1e-4f);
    }
  }
}

}  // namespace
}  // namespace tensor
}  // namespace contratopic
