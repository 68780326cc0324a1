#include <cmath>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/contrastive_loss.h"
#include "core/subset_sampler.h"
#include "tensor/autodiff.h"
#include "tensor/grad_check.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace contratopic {
namespace autodiff {
namespace {

using tensor::CheckGradient;
using tensor::GradCheckResult;
using tensor::Tensor;

Tensor SmallRandom(int64_t rows, int64_t cols, uint64_t seed,
                   float stddev = 1.0f) {
  util::Rng rng(seed);
  return Tensor::RandNormal(rows, cols, rng, 0.0f, stddev);
}

TEST(BackwardTest, ChainsThroughSimpleGraph) {
  // loss = sum((2x)^2) => dloss/dx = 8x.
  Var x = Var::Leaf(Tensor(1, 3, {1.0f, -2.0f, 3.0f}), true);
  Var loss = SumAll(Square(MulScalar(x, 2.0f)));
  Backward(loss);
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 8.0f);
  EXPECT_FLOAT_EQ(x.grad().at(0, 1), -16.0f);
  EXPECT_FLOAT_EQ(x.grad().at(0, 2), 24.0f);
}

TEST(BackwardTest, GradAccumulatesAcrossUses) {
  // loss = sum(x) + sum(x) => grad = 2 everywhere.
  Var x = Var::Leaf(Tensor::Ones(2, 2), true);
  Var loss = Add(SumAll(x), SumAll(x));
  Backward(loss);
  EXPECT_FLOAT_EQ(x.grad().at(1, 1), 2.0f);
}

TEST(BackwardTest, ConstantGetsNoGradient) {
  Var x = Var::Constant(Tensor::Ones(2, 2));
  Var loss = SumAll(Square(x));
  Backward(loss);  // Should be a no-op, not crash.
  EXPECT_TRUE(x.grad().empty());
}

TEST(BackwardTest, ZeroGradResets) {
  Var x = Var::Leaf(Tensor::Ones(1, 2), true);
  Backward(SumAll(x));
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 1.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 0.0f);
}

// ---------------------------------------------------------------------------
// Parameterized numerical gradient checks: every unary op.
// ---------------------------------------------------------------------------

struct UnaryCase {
  std::string name;
  std::function<Var(const Var&)> op;
  bool positive_input = false;  // restrict to positive domain (log, sqrt)
};

// Prints a case by its name. Without this gtest prints the struct's raw
// bytes, heap pointers included, into the listed test name, which then
// differs from one build to the next.
void PrintTo(const UnaryCase& test_case, std::ostream* os) {
  *os << '"' << test_case.name << '"';
}

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesNumericalGradient) {
  const UnaryCase& test_case = GetParam();
  Tensor input = SmallRandom(3, 4, 101, 0.8f);
  if (test_case.positive_input) {
    input.Apply([](float v) { return std::fabs(v) + 0.2f; });
  }
  auto fn = [&](const Var& x) { return SumAll(test_case.op(x)); };
  const GradCheckResult result = CheckGradient(fn, input);
  EXPECT_TRUE(result.ok) << test_case.name
                         << " max_rel_error=" << result.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradTest,
    ::testing::Values(
        UnaryCase{"exp", [](const Var& x) { return Exp(x); }},
        UnaryCase{"log", [](const Var& x) { return Log(x); }, true},
        UnaryCase{"square", [](const Var& x) { return Square(x); }},
        UnaryCase{"sqrt", [](const Var& x) { return Sqrt(x); }, true},
        UnaryCase{"rsqrt", [](const Var& x) { return Rsqrt(x); }, true},
        UnaryCase{"selu", [](const Var& x) { return Selu(x); }},
        UnaryCase{"softplus", [](const Var& x) { return Softplus(x); }},
        UnaryCase{"tanh", [](const Var& x) { return Tanh(x); }},
        UnaryCase{"sigmoid", [](const Var& x) { return Sigmoid(x); }},
        UnaryCase{"neg", [](const Var& x) { return Neg(x); }},
        UnaryCase{"addscalar", [](const Var& x) { return AddScalar(x, 3.0f); }},
        UnaryCase{"mulscalar",
                  [](const Var& x) { return MulScalar(x, -2.0f); }},
        UnaryCase{"softmax",
                  [](const Var& x) { return Square(SoftmaxRows(x)); }},
        UnaryCase{"logsoftmax",
                  [](const Var& x) { return Square(LogSoftmaxRows(x)); }},
        UnaryCase{"rowsum", [](const Var& x) { return Square(RowSum(x)); }},
        UnaryCase{"colsum", [](const Var& x) { return Square(ColSum(x)); }},
        UnaryCase{"colmean", [](const Var& x) { return Square(ColMean(x)); }},
        UnaryCase{"transpose",
                  [](const Var& x) { return Square(Transpose(x)); }},
        UnaryCase{"rowl2norm",
                  [](const Var& x) { return Square(RowL2Normalize(x)); }},
        UnaryCase{"logsumexp",
                  [](const Var& x) { return Square(LogSumExpRows(x)); }}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Binary / structured op gradient checks.
// ---------------------------------------------------------------------------

TEST(BinaryGradTest, AddSubMulDiv) {
  const Tensor other = [] {
    Tensor t = SmallRandom(3, 4, 200);
    t.Apply([](float v) { return std::fabs(v) + 0.5f; });  // Safe divisor.
    return t;
  }();
  for (auto [name, fn] :
       std::vector<std::pair<std::string, std::function<Var(const Var&)>>>{
           {"add",
            [&](const Var& x) {
              return SumAll(Square(Add(x, Var::Constant(other))));
            }},
           {"sub",
            [&](const Var& x) {
              return SumAll(Square(Sub(x, Var::Constant(other))));
            }},
           {"mul",
            [&](const Var& x) {
              return SumAll(Square(Mul(x, Var::Constant(other))));
            }},
           {"div",
            [&](const Var& x) {
              return SumAll(Square(Div(x, Var::Constant(other))));
            }},
           {"div_rhs", [&](const Var& x) {
              return SumAll(Square(
                  Div(Var::Constant(other), AddScalar(Square(x), 1.0f))));
            }}}) {
    const GradCheckResult result = CheckGradient(fn, SmallRandom(3, 4, 201));
    EXPECT_TRUE(result.ok) << name << " rel=" << result.max_rel_error;
  }
}

TEST(MatMulGradTest, AllTransposeCombos) {
  const Tensor b_val = SmallRandom(4, 5, 300);
  struct Combo {
    bool ta, tb;
    int64_t rows, cols;
  };
  for (const Combo combo : std::vector<Combo>{{false, false, 3, 4},
                                              {false, true, 3, 5},
                                              {true, false, 4, 3},
                                              {true, true, 5, 3}}) {
    // Shapes: (ta? x^T : x) must be (m x 4or5) compatible with op(B).
    auto fn = [&](const Var& x) {
      return SumAll(
          Square(MatMul(x, Var::Constant(b_val), combo.ta, combo.tb)));
    };
    const GradCheckResult result =
        CheckGradient(fn, SmallRandom(combo.rows, combo.cols, 301));
    EXPECT_TRUE(result.ok) << "ta=" << combo.ta << " tb=" << combo.tb
                           << " rel=" << result.max_rel_error;
  }
  // Gradient w.r.t. the second operand.
  const Tensor a_val = SmallRandom(3, 4, 302);
  auto fn_b = [&](const Var& x) {
    return SumAll(Square(MatMul(Var::Constant(a_val), x, false, true)));
  };
  EXPECT_TRUE(CheckGradient(fn_b, SmallRandom(6, 4, 303)).ok);
}

TEST(BroadcastGradTest, ColumnOps) {
  const Tensor col_val = [] {
    Tensor t = SmallRandom(3, 1, 400);
    t.Apply([](float v) { return std::fabs(v) + 0.5f; });
    return t;
  }();
  // Gradient w.r.t. the matrix.
  for (auto fn : {
           std::function<Var(const Var&)>([&](const Var& x) {
             return SumAll(Square(BroadcastColAdd(x, Var::Constant(col_val))));
           }),
           std::function<Var(const Var&)>([&](const Var& x) {
             return SumAll(Square(BroadcastColMul(x, Var::Constant(col_val))));
           }),
           std::function<Var(const Var&)>([&](const Var& x) {
             return SumAll(Square(BroadcastColDiv(x, Var::Constant(col_val))));
           }),
       }) {
    EXPECT_TRUE(CheckGradient(fn, SmallRandom(3, 4, 401)).ok);
  }
  // Gradient w.r.t. the column.
  const Tensor mat_val = SmallRandom(3, 4, 402);
  auto fn_col = [&](const Var& c) {
    return SumAll(Square(BroadcastColMul(Var::Constant(mat_val), c)));
  };
  EXPECT_TRUE(CheckGradient(fn_col, col_val).ok);
  auto fn_col_div = [&](const Var& c) {
    return SumAll(Square(BroadcastColDiv(Var::Constant(mat_val),
                                         AddScalar(Square(c), 1.0f))));
  };
  EXPECT_TRUE(CheckGradient(fn_col_div, SmallRandom(3, 1, 403)).ok);
}

TEST(BroadcastGradTest, RowOps) {
  const Tensor row_val = [] {
    Tensor t = SmallRandom(1, 4, 410);
    t.Apply([](float v) { return std::fabs(v) + 0.5f; });
    return t;
  }();
  auto fn_mat = [&](const Var& x) {
    return SumAll(Square(BroadcastRowSub(x, Var::Constant(row_val))));
  };
  EXPECT_TRUE(CheckGradient(fn_mat, SmallRandom(3, 4, 411)).ok);
  const Tensor mat_val = SmallRandom(3, 4, 412);
  auto fn_row = [&](const Var& r) {
    return SumAll(Square(BroadcastRowMul(Var::Constant(mat_val), r)));
  };
  EXPECT_TRUE(CheckGradient(fn_row, row_val).ok);
}

TEST(StructuredGradTest, MaskedLogSumExp) {
  util::Rng rng(500);
  Tensor mask(3, 5);
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask.data()[i] = rng.Uniform() < 0.6 ? 1.0f : 0.0f;
  }
  mask.at(0, 0) = 1.0f;  // Ensure no empty row.
  mask.at(1, 1) = 1.0f;
  mask.at(2, 2) = 1.0f;
  auto fn = [&](const Var& x) {
    return SumAll(Square(MaskedLogSumExpRows(x, mask)));
  };
  EXPECT_TRUE(CheckGradient(fn, SmallRandom(3, 5, 501)).ok);
}

TEST(StructuredGradTest, ConcatRows) {
  const Tensor b_val = SmallRandom(2, 4, 510);
  auto fn = [&](const Var& x) {
    return SumAll(Square(ConcatRows({x, Var::Constant(b_val), x})));
  };
  EXPECT_TRUE(CheckGradient(fn, SmallRandom(3, 4, 511)).ok);
}

TEST(StructuredGradTest, SelectColumnsWithDuplicates) {
  const std::vector<int> indices = {3, 0, 3, 1};
  auto fn = [&](const Var& x) {
    return SumAll(Square(SelectColumns(x, indices)));
  };
  EXPECT_TRUE(CheckGradient(fn, SmallRandom(2, 5, 520)).ok);
}

TEST(StructuredGradTest, GatherRowsWithDuplicates) {
  // Duplicate indices make the backward scatter-add accumulate: row 2's
  // gradient receives contributions from output rows 0 and 2.
  const std::vector<int> indices = {2, 0, 2, 4, 1};
  auto fn = [&](const Var& x) {
    return SumAll(Square(GatherRows(x, indices)));
  };
  EXPECT_TRUE(CheckGradient(fn, SmallRandom(5, 3, 525)).ok);
}

TEST(StructuredGradTest, GatherRowsForward) {
  const Tensor x = SmallRandom(4, 3, 526);
  Var out = GatherRows(Var::Constant(x), {3, 3, 0});
  ASSERT_EQ(out.value().rows(), 3);
  ASSERT_EQ(out.value().cols(), 3);
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_EQ(out.value().at(0, c), x.at(3, c));
    EXPECT_EQ(out.value().at(1, c), x.at(3, c));
    EXPECT_EQ(out.value().at(2, c), x.at(0, c));
  }
}

TEST(StructuredGradTest, ApplyMask) {
  util::Rng rng(530);
  Tensor mask(3, 4);
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask.data()[i] = rng.Uniform() < 0.5 ? 2.0f : 0.0f;
  }
  auto fn = [&](const Var& x) { return SumAll(Square(ApplyMask(x, mask))); };
  EXPECT_TRUE(CheckGradient(fn, SmallRandom(3, 4, 531)).ok);
}

TEST(StructuredGradTest, ReluSubgradientAwayFromKink) {
  // Keep inputs away from 0 where ReLU is non-differentiable.
  Tensor input = SmallRandom(3, 4, 540);
  input.Apply([](float v) { return v >= 0 ? v + 0.5f : v - 0.5f; });
  auto fn = [&](const Var& x) { return SumAll(Square(Relu(x))); };
  EXPECT_TRUE(CheckGradient(fn, input).ok);
}

TEST(CompositeGradTest, VaeStyleGraph) {
  // mu + exp(0.5 logvar) * eps -> softmax -> log-lik style loss: the exact
  // composition every VAE model in the repo trains through.
  const Tensor eps = SmallRandom(4, 3, 600);
  const Tensor x = [] {
    Tensor t = SmallRandom(4, 6, 601);
    t.Apply([](float v) { return std::fabs(v); });
    return t;
  }();
  const Tensor beta_const = [] {
    Tensor t = SmallRandom(3, 6, 602);
    return tensor::SoftmaxRows(t);
  }();
  auto fn = [&](const Var& mu) {
    Var theta = SoftmaxRows(Add(mu, Mul(Exp(MulScalar(mu, 0.5f)),
                                        Var::Constant(eps))));
    Var probs = MatMul(theta, Var::Constant(beta_const));
    return Neg(SumAll(Mul(Var::Constant(x), Log(probs, 1e-6f))));
  };
  const GradCheckResult result =
      CheckGradient(fn, SmallRandom(4, 3, 603), 1e-3f, 8e-2f);
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

// ---------------------------------------------------------------------------
// Full contrastive path: Gumbel subset relaxation (subset_sampler.cc)
// composed with the topic-wise contrastive loss (contrastive_loss.cc) — the
// exact gradient chain ContraTopic trains through (paper Eqs. 2-5).
// ---------------------------------------------------------------------------

// Symmetric kernel with NPMI-like range, fixed across FD evaluations.
Tensor SyntheticKernel(int c, uint64_t seed) {
  Tensor k = SmallRandom(c, c, seed);
  Tensor kt = tensor::Transposed(k);
  k.AddInPlace(kt);
  k.Apply([](float v) { return std::tanh(v); });
  for (int i = 0; i < c; ++i) k.at(i, i) = 1.0f;
  return k;
}

// Builds the closure used by the contrastive-path checks: softmax the raw
// topic-word scores, take logs, draw the relaxed subset with a *freshly
// seeded* rng (so every finite-difference evaluation sees identical Gumbel
// noise), and feed the relaxed one-hots to the loss. Soft relaxation only:
// the straight-through estimator is intentionally biased (discontinuous
// forward), so finite differences cannot validate it.
std::function<Var(const Var&)> ContrastivePathFn(const Tensor& kernel, int v,
                                                 core::ContrastVariant cv) {
  return [&kernel, v, cv](const Var& x) {
    util::Rng rng(42);
    Var beta = SoftmaxRows(x);
    core::SubsetSample sample = core::SampleTopVWithoutReplacement(
        Log(beta, 1e-20f), v, /*tau=*/1.0f, rng, /*hard=*/false);
    return core::TopicContrastiveLoss(sample.steps, kernel, cv,
                                      /*temperature=*/0.5f);
  };
}

TEST(ContrastivePathGradTest, FullVariant) {
  const Tensor kernel = SyntheticKernel(8, 700);
  const GradCheckResult result =
      CheckGradient(ContrastivePathFn(kernel, 2, core::ContrastVariant::kFull),
                    SmallRandom(4, 8, 701), 1e-3f, 8e-2f);
  EXPECT_TRUE(result.ok) << "max_rel_error=" << result.max_rel_error;
}

TEST(ContrastivePathGradTest, PositiveOnlyVariant) {
  const Tensor kernel = SyntheticKernel(8, 710);
  const GradCheckResult result = CheckGradient(
      ContrastivePathFn(kernel, 2, core::ContrastVariant::kPositiveOnly),
      SmallRandom(4, 8, 711), 1e-3f, 8e-2f);
  EXPECT_TRUE(result.ok) << "max_rel_error=" << result.max_rel_error;
}

TEST(ContrastivePathGradTest, NegativeOnlyVariant) {
  const Tensor kernel = SyntheticKernel(8, 720);
  const GradCheckResult result = CheckGradient(
      ContrastivePathFn(kernel, 2, core::ContrastVariant::kNegativeOnly),
      SmallRandom(4, 8, 721), 1e-3f, 8e-2f);
  EXPECT_TRUE(result.ok) << "max_rel_error=" << result.max_rel_error;
}

TEST(ContrastivePathGradTest, DeeperSubsetDraw) {
  // v=3 chains three relaxed arg-max steps; gradients flow through the
  // log(1 - p) updates of every step.
  const Tensor kernel = SyntheticKernel(10, 730);
  const GradCheckResult result =
      CheckGradient(ContrastivePathFn(kernel, 3, core::ContrastVariant::kFull),
                    SmallRandom(3, 10, 731), 1e-3f, 1e-1f);
  EXPECT_TRUE(result.ok) << "max_rel_error=" << result.max_rel_error;
}

TEST(ContrastivePathGradTest, ExpectationVariant) {
  // ContraTopic-S: the sampler is bypassed, beta rows feed the loss directly.
  const Tensor kernel = SyntheticKernel(8, 740);
  auto fn = [&kernel](const Var& x) {
    return core::ExpectationContrastiveLoss(SoftmaxRows(x), kernel,
                                            /*temperature=*/0.5f);
  };
  const GradCheckResult result =
      CheckGradient(fn, SmallRandom(4, 8, 741), 1e-3f, 8e-2f);
  EXPECT_TRUE(result.ok) << "max_rel_error=" << result.max_rel_error;
}

// ---------------------------------------------------------------------------
// Model-zoo contrastive paths (CLNTM / TSCTM): the exact op compositions
// the new models train through, finite-difference checked end to end.
// ---------------------------------------------------------------------------

TEST(ContrastivePathGradTest, SoftplusLogSumExpDenominator) {
  // CLNTM's InfoNCE denominator: lse + softplus(s_neg - lse) - s_pos, with
  // the anchor/positive/negative representations all L2-normalized rows of
  // functions of x. Gradient flows through every branch (sim matrix, the
  // per-row positive, and the hard-negative column).
  const Tensor w_pos = SmallRandom(4, 4, 750);
  const Tensor w_neg = SmallRandom(4, 4, 751);
  auto fn = [&](const Var& x) {
    Var h = RowL2Normalize(x);
    Var h_pos = RowL2Normalize(MatMul(x, Var::Constant(w_pos)));
    Var h_neg = RowL2Normalize(MatMul(x, Var::Constant(w_neg)));
    const float inv_tau = 2.0f;
    Var sim = MulScalar(MatMul(h, h_pos, false, true), inv_tau);
    Var s_pos = MulScalar(RowSum(Mul(h, h_pos)), inv_tau);
    Var s_neg = MulScalar(RowSum(Mul(h, h_neg)), inv_tau);
    Var lse = LogSumExpRows(sim);
    Var denom = Add(lse, Softplus(Sub(s_neg, lse)));
    return MeanAll(Sub(denom, s_pos));
  };
  const GradCheckResult result =
      CheckGradient(fn, SmallRandom(3, 4, 752), 1e-3f, 8e-2f);
  EXPECT_TRUE(result.ok) << "max_rel_error=" << result.max_rel_error;
}

TEST(ContrastivePathGradTest, IndexMaskedSimilarityContrast) {
  // TSCTM's quantization-masked doc-doc contrast: z = normalize(x T),
  // same-index pairs averaged as positives, different-index pairs through
  // the masked log-sum-exp denominator. Masks are constants, matching the
  // detached quantization assignment in TsctmModel::BuildBatch.
  const Tensor topics = SmallRandom(4, 3, 760);
  const int64_t b = 4;
  const std::vector<int> quant = {0, 1, 0, 1};
  Tensor pos_mask(b, b);
  Tensor neg_mask(b, b);
  Tensor inv_pos(b, 1);
  for (int64_t i = 0; i < b; ++i) {
    int pos_count = 0;
    for (int64_t j = 0; j < b; ++j) {
      if (quant[i] == quant[j]) {
        if (i != j) {
          pos_mask.at(i, j) = 1.0f;
          ++pos_count;
        }
      } else {
        neg_mask.at(i, j) = 1.0f;
      }
    }
    inv_pos.at(i, 0) = 1.0f / static_cast<float>(pos_count);
  }
  auto fn = [&](const Var& x) {
    Var z = RowL2Normalize(MatMul(x, Var::Constant(topics)));
    Var logits = MulScalar(MatMul(z, z, false, true), 2.0f);
    Var mean_pos =
        Mul(RowSum(ApplyMask(logits, pos_mask)), Var::Constant(inv_pos));
    Var denom = MaskedLogSumExpRows(logits, neg_mask);
    return MeanAll(Sub(denom, mean_pos));
  };
  const GradCheckResult result =
      CheckGradient(fn, SmallRandom(4, 4, 761), 1e-3f, 8e-2f);
  EXPECT_TRUE(result.ok) << "max_rel_error=" << result.max_rel_error;
}

TEST(ContrastivePathGradTest, QuantizationAnchorCrossEntropy) {
  // TSCTM's anchor term: the positive logit rides GatherRows over the
  // normalized anchors (the gradient must scatter-add back into the shared
  // anchor matrix, including duplicate assignments).
  const Tensor doc = SmallRandom(3, 4, 770);
  const std::vector<int> quant = {1, 1, 0};  // duplicate anchor use
  auto fn = [&](const Var& t) {
    Var anchors = RowL2Normalize(t);
    Var z = RowL2Normalize(Var::Constant(doc));
    Var logits = MulScalar(MatMul(z, anchors, false, true), 2.0f);
    Var own = MulScalar(RowSum(Mul(z, GatherRows(anchors, quant))), 2.0f);
    return MeanAll(Sub(LogSumExpRows(logits), own));
  };
  const GradCheckResult result =
      CheckGradient(fn, SmallRandom(2, 4, 771), 1e-3f, 8e-2f);
  EXPECT_TRUE(result.ok) << "max_rel_error=" << result.max_rel_error;
}

TEST(ContrastivePathGradTest, ReconSubstitutedViewEncoderPath) {
  // CLNTM's view construction is detached (the views enter as constants),
  // so the gradient must flow only through the encoder weights -- checked
  // here as dx of an InfoNCE scalar whose views are fixed tensors.
  const Tensor positive = SmallRandom(3, 4, 780);
  const Tensor negative = SmallRandom(3, 4, 781);
  const Tensor w = SmallRandom(4, 4, 782);
  auto fn = [&](const Var& x) {
    Var h = RowL2Normalize(MatMul(x, Var::Constant(w)));
    Var h_pos =
        RowL2Normalize(MatMul(Var::Constant(positive), Var::Constant(w)));
    Var h_neg =
        RowL2Normalize(MatMul(Var::Constant(negative), Var::Constant(w)));
    Var s_pos = RowSum(Mul(h, h_pos));
    Var s_neg = RowSum(Mul(h, h_neg));
    return MeanAll(Softplus(Sub(s_neg, s_pos)));
  };
  EXPECT_TRUE(CheckGradient(fn, SmallRandom(3, 4, 783)).ok);
}

}  // namespace
}  // namespace autodiff
}  // namespace contratopic
