#include <cmath>

#include <gtest/gtest.h>

#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/serialization.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

#include <fstream>
#include <iterator>

namespace contratopic {
namespace nn {
namespace {

using autodiff::Backward;
using autodiff::MeanAll;
using autodiff::Square;
using autodiff::Sub;
using autodiff::SumAll;
using autodiff::Var;
using tensor::Tensor;

TEST(LinearTest, ForwardShapeAndBias) {
  util::Rng rng(1);
  Linear layer(4, 3, rng);
  Var x = Var::Constant(Tensor::Ones(2, 4));
  Var y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 3);
  // Bias starts at zero, so output = x W.
  const Tensor expected =
      tensor::MatMulNew(x.value(), false, layer.weight().value(), false);
  EXPECT_TRUE(tensor::AllClose(y.value(), expected, 1e-5f));
}

// The eval-mode W^T a layer computes with at `precision`, built from
// scratch: the reference for the layer's cached copy.
Tensor FreshEvalForward(const Linear& layer, const Tensor& x,
                        tensor::ServePrecision precision) {
  const Tensor wt = tensor::Transposed(layer.weight().value());
  const float* bias = layer.bias().value().data();
  switch (precision) {
    case tensor::ServePrecision::kBf16:
      return tensor::MatMulBf16T(x, tensor::Bf16FromTensor(wt), bias);
    case tensor::ServePrecision::kInt8:
      return tensor::MatMulInt8T(x, tensor::Int8FromTensor(wt), bias);
    case tensor::ServePrecision::kFp32:
      break;
  }
  Tensor out = tensor::MatMulNew(x, false, layer.weight().value(), false);
  tensor::BroadcastRow(out, layer.bias().value(), tensor::BinaryOp::kAdd,
                       &out);
  return out;
}

void ExpectBitwiseEqual(const Tensor& got, const Tensor& want) {
  ASSERT_TRUE(got.same_shape(want))
      << got.ShapeString() << " vs " << want.ShapeString();
  for (int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << "element " << i;
  }
}

TEST(LinearTest, TrainingModeDropsThePackedServingWeights) {
  for (const tensor::ServePrecision precision :
       {tensor::ServePrecision::kFp32, tensor::ServePrecision::kBf16,
        tensor::ServePrecision::kInt8}) {
    SCOPED_TRACE(tensor::ServePrecisionName(precision));
    util::Rng rng(7);
    Linear layer(32, 16, rng);
    layer.bias().node()->value.Fill(0.25f);
    layer.SetTraining(false);
    tensor::ScopedServePrecision scoped(precision);
    const Var x = Var::Constant(Tensor::Ones(2, 32));
    const Tensor before = layer.Forward(x).value();
    // A training round rewrites the weight in place, as the optimizer does.
    layer.SetTraining(true);
    layer.weight().node()->value.Scale(2.0f);
    layer.SetTraining(false);
    const Tensor after = layer.Forward(x).value();
    ExpectBitwiseEqual(after, FreshEvalForward(layer, x.value(), precision));
    EXPECT_FALSE(tensor::AllClose(before, after, 1e-3f));
  }
}

TEST(LinearTest, EvalModeFp32ForwardIsBitwiseMatMulPlusBias) {
  util::Rng rng(11);
  Linear layer(70, 37, rng);
  Tensor bias(1, 37);
  for (int64_t o = 0; o < 37; ++o) bias.data()[o] = 0.01f * (o - 18);
  layer.bias().node()->value = bias;
  Tensor x(5, 70);
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.Normal());
  }
  const Tensor train_mode = layer.Forward(Var::Constant(x)).value();
  layer.SetTraining(false);
  tensor::ScopedServePrecision scoped(tensor::ServePrecision::kFp32);
  Tensor want = tensor::MatMulNew(x, false, layer.weight().value(), false);
  for (int64_t r = 0; r < want.rows(); ++r) {
    for (int64_t o = 0; o < want.cols(); ++o) {
      want.at(r, o) = want.at(r, o) + bias.at(0, o);
    }
  }
  // Twice: the first call builds the cached W^T, the second reads it.
  ExpectBitwiseEqual(layer.Forward(Var::Constant(x)).value(), want);
  ExpectBitwiseEqual(layer.Forward(Var::Constant(x)).value(), want);
  ExpectBitwiseEqual(train_mode, want);
}

TEST(LinearTest, ParametersExposed) {
  util::Rng rng(2);
  Linear layer(4, 3, rng, "enc");
  const auto params = layer.Parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "enc.weight");
  EXPECT_EQ(params[1].name, "enc.bias");
}

TEST(LinearTest, NoBiasVariant) {
  util::Rng rng(3);
  Linear layer(4, 3, rng, "nb", /*with_bias=*/false);
  EXPECT_EQ(layer.Parameters().size(), 1u);
}

TEST(BatchNormTest, NormalizesBatchInTraining) {
  util::Rng rng(4);
  BatchNorm1d bn(3);
  bn.SetTraining(true);
  Tensor x = Tensor::RandNormal(64, 3, rng, 5.0f, 2.0f);
  Var y = bn.Forward(Var::Constant(x));
  const Tensor col_mean = tensor::ColMean(y.value());
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(col_mean.at(0, c), 0.0f, 1e-3f);
  }
}

TEST(BatchNormTest, RunningStatsTrackBatchStats) {
  util::Rng rng(5);
  BatchNorm1d bn(2, "bn", /*momentum=*/1.0f);  // Copy the batch stats.
  bn.SetTraining(true);
  Tensor x = Tensor::RandNormal(256, 2, rng, 3.0f, 1.5f);
  bn.Forward(Var::Constant(x));
  EXPECT_NEAR(bn.running_mean().at(0, 0), 3.0f, 0.3f);
  EXPECT_NEAR(bn.running_var().at(0, 1), 2.25f, 0.5f);
}

TEST(BatchNormTest, EvalModeUsesRunningStats) {
  util::Rng rng(6);
  BatchNorm1d bn(2, "bn", 1.0f);
  bn.SetTraining(true);
  bn.Forward(Var::Constant(Tensor::RandNormal(128, 2, rng, 10.0f, 1.0f)));
  bn.SetTraining(false);
  // A sample near the running mean should normalize to ~0.
  Tensor probe = Tensor::Full(1, 2, 10.0f);
  Var y = bn.Forward(Var::Constant(probe));
  EXPECT_NEAR(y.value().at(0, 0), 0.0f, 0.5f);
}

TEST(DropoutTest, EvalModeIsIdentity) {
  util::Rng rng(7);
  Dropout dropout(0.5f, rng);
  dropout.SetTraining(false);
  Tensor x = Tensor::Ones(4, 4);
  Var y = dropout.Forward(Var::Constant(x));
  EXPECT_TRUE(tensor::AllClose(y.value(), x));
}

TEST(DropoutTest, TrainingPreservesExpectation) {
  util::Rng rng(8);
  Dropout dropout(0.5f, rng);
  dropout.SetTraining(true);
  Tensor x = Tensor::Ones(100, 100);
  Var y = dropout.Forward(Var::Constant(x));
  // Inverted dropout: E[output] == input.
  EXPECT_NEAR(y.value().Mean(), 1.0f, 0.05f);
  // Roughly half the entries are zero.
  int zeros = 0;
  for (int64_t i = 0; i < y.value().numel(); ++i) {
    if (y.value().data()[i] == 0.0f) ++zeros;
  }
  EXPECT_NEAR(zeros / 10000.0, 0.5, 0.05);
}

TEST(ActivationTest, NamesRoundTrip) {
  EXPECT_EQ(ActivationFromName("relu"), Activation::kRelu);
  EXPECT_EQ(ActivationFromName("selu"), Activation::kSelu);
  EXPECT_EQ(ActivationFromName("none"), Activation::kNone);
}

TEST(MlpTest, ForwardShape) {
  util::Rng rng(9);
  Mlp::Config config;
  config.layer_sizes = {10, 8, 6};
  config.batch_norm = true;
  config.dropout_rate = 0.2f;
  Mlp mlp(config, rng);
  Var y = mlp.Forward(Var::Constant(Tensor::Ones(5, 10)));
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 6);
  // 2 linear layers * 2 params + batch norm * 2.
  EXPECT_EQ(mlp.Parameters().size(), 6u);
}

// ---------------------------------------------------------------------------
// Optimizers: closed-form quadratic and a small regression problem.
// ---------------------------------------------------------------------------

TEST(SgdTest, DescendsQuadratic) {
  Var w = Var::Leaf(Tensor::Full(1, 1, 10.0f), true);
  Sgd sgd(0.1f);
  for (int step = 0; step < 100; ++step) {
    Var loss = Square(w);
    Backward(loss);
    sgd.Step({{"w", w}});
    w.ZeroGrad();
  }
  EXPECT_NEAR(w.value().scalar(), 0.0f, 1e-3f);
}

TEST(SgdTest, MomentumAcceleratesDescent) {
  Var w1 = Var::Leaf(Tensor::Full(1, 1, 10.0f), true);
  Var w2 = Var::Leaf(Tensor::Full(1, 1, 10.0f), true);
  Sgd plain(0.01f);
  Sgd momentum(0.01f, 0.9f);
  for (int step = 0; step < 20; ++step) {
    Backward(Square(w1));
    plain.Step({{"w", w1}});
    w1.ZeroGrad();
    Backward(Square(w2));
    momentum.Step({{"w", w2}});
    w2.ZeroGrad();
  }
  EXPECT_LT(std::fabs(w2.value().scalar()), std::fabs(w1.value().scalar()));
}

TEST(AdamTest, SolvesLinearRegression) {
  util::Rng rng(10);
  // y = X w* with known w*.
  const Tensor x = Tensor::RandNormal(128, 4, rng);
  Tensor w_star(4, 1, {1.0f, -2.0f, 0.5f, 3.0f});
  const Tensor y = tensor::MatMulNew(x, false, w_star, false);

  Var w = Var::Leaf(Tensor::Zeros(4, 1), true);
  Adam adam(0.05f);
  for (int step = 0; step < 400; ++step) {
    Var pred = autodiff::MatMul(Var::Constant(x), w);
    Var loss = MeanAll(Square(Sub(pred, Var::Constant(y))));
    Backward(loss);
    adam.Step({{"w", w}});
    w.ZeroGrad();
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.value().at(i, 0), w_star.at(i, 0), 0.05f) << "coef " << i;
  }
}

TEST(AdamTest, WeightDecayShrinksUnusedParams) {
  Var w = Var::Leaf(Tensor::Full(1, 1, 5.0f), true);
  Adam adam(0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  for (int step = 0; step < 200; ++step) {
    // Loss is constant in w; only decay acts, via the decayed gradient.
    Var loss = MeanAll(Square(autodiff::MulScalar(w, 0.0f)));
    Backward(loss);
    adam.Step({{"w", w}});
    w.ZeroGrad();
  }
  EXPECT_LT(std::fabs(w.value().scalar()), 2.0f);
}

TEST(ClipGradNormTest, RescalesLargeGradients) {
  Var w = Var::Leaf(Tensor::Full(1, 4, 0.0f), true);
  Backward(SumAll(autodiff::MulScalar(w, 100.0f)));
  // Gradient = 100 per element, norm = 200.
  const float before = ClipGradNorm({{"w", w}}, 1.0f);
  EXPECT_NEAR(before, 200.0f, 1e-3f);
  double norm_sq = 0.0;
  for (int64_t i = 0; i < 4; ++i) {
    norm_sq += static_cast<double>(w.grad().at(0, i)) * w.grad().at(0, i);
  }
  EXPECT_NEAR(std::sqrt(norm_sq), 1.0f, 1e-4f);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Var w = Var::Leaf(Tensor::Full(1, 1, 0.0f), true);
  Backward(SumAll(w));
  ClipGradNorm({{"w", w}}, 10.0f);
  EXPECT_FLOAT_EQ(w.grad().scalar(), 1.0f);
}

TEST(SerializationTest, SaveLoadRoundTrip) {
  util::Rng rng(21);
  Linear original(4, 3, rng, "layer");
  const std::string path = ::testing::TempDir() + "/ct_params_test.bin";
  ASSERT_TRUE(SaveParameters(original.Parameters(), path).ok());

  util::Rng rng2(99);
  Linear restored(4, 3, rng2, "layer");
  ASSERT_FALSE(
      tensor::AllClose(restored.weight().value(), original.weight().value()));
  ASSERT_TRUE(LoadParameters(restored.Parameters(), path).ok());
  EXPECT_TRUE(
      tensor::AllClose(restored.weight().value(), original.weight().value()));
  EXPECT_TRUE(
      tensor::AllClose(restored.bias().value(), original.bias().value()));
}

TEST(SerializationTest, ShapeMismatchIsAnError) {
  util::Rng rng(22);
  Linear original(4, 3, rng, "layer");
  const std::string path = ::testing::TempDir() + "/ct_params_mismatch.bin";
  ASSERT_TRUE(SaveParameters(original.Parameters(), path).ok());
  Linear wrong_shape(5, 3, rng, "layer");
  const util::Status status = LoadParameters(wrong_shape.Parameters(), path);
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("shape mismatch"), std::string::npos)
      << status;
}

TEST(SerializationTest, UnknownParameterNameIsAnError) {
  util::Rng rng(23);
  Linear original(4, 3, rng, "layer_a");
  const std::string path = ::testing::TempDir() + "/ct_params_name.bin";
  ASSERT_TRUE(SaveParameters(original.Parameters(), path).ok());
  Linear renamed(4, 3, rng, "layer_b");
  const util::Status status = LoadParameters(renamed.Parameters(), path);
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

TEST(SerializationTest, EmptyFileIsIOError) {
  const std::string path = ::testing::TempDir() + "/ct_params_empty.bin";
  { std::ofstream touch(path, std::ios::binary | std::ios::trunc); }
  util::Rng rng(24);
  Linear model(4, 3, rng, "layer");
  const util::Status status = LoadParameters(model.Parameters(), path);
  EXPECT_EQ(status.code(), util::StatusCode::kIOError);
}

TEST(SerializationTest, TruncatedFileIsIOError) {
  util::Rng rng(25);
  Linear original(4, 3, rng, "layer");
  const std::string path = ::testing::TempDir() + "/ct_params_trunc.bin";
  ASSERT_TRUE(SaveParameters(original.Parameters(), path).ok());
  // Chop the file mid-entry; every prefix must fail cleanly (no crash).
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string cut = path + ".cut";
  for (size_t keep : {bytes.size() / 2, bytes.size() - 1, size_t{12}}) {
    std::ofstream out(cut, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    const util::Status status = LoadParameters(original.Parameters(), cut);
    EXPECT_EQ(status.code(), util::StatusCode::kIOError)
        << "keep=" << keep << ": " << status;
  }
}

TEST(SerializationTest, CountMismatchFailsBeforeReadingEntries) {
  util::Rng rng(26);
  Linear original(4, 3, rng, "layer");  // weight + bias = 2 parameters
  const std::string path = ::testing::TempDir() + "/ct_params_count.bin";
  ASSERT_TRUE(SaveParameters(original.Parameters(), path).ok());
  std::vector<Parameter> just_weight = {original.Parameters()[0]};
  const util::Status status = LoadParameters(just_weight, path);
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("stores 2 parameters"), std::string::npos)
      << status;
}

TEST(SerializationTest, DuplicateEntryIsDataLoss) {
  util::Rng rng(27);
  Linear model(2, 2, rng, "layer");
  const std::string path = ::testing::TempDir() + "/ct_params_dup.bin";
  util::BinaryWriter writer(path);
  writer.WriteU64(2);
  for (int copy = 0; copy < 2; ++copy) {
    writer.WriteString("layer.weight");
    writer.WriteU64(2);
    writer.WriteU64(2);
    writer.WriteFloatVector({1.0f, 2.0f, 3.0f, 4.0f});
  }
  ASSERT_TRUE(writer.Close().ok());
  const util::Status status = LoadParameters(model.Parameters(), path);
  EXPECT_EQ(status.code(), util::StatusCode::kDataLoss);
}

TEST(SerializationTest, ImpossibleShapeIsDataLoss) {
  util::Rng rng(28);
  Linear model(2, 2, rng, "layer");
  const std::string path = ::testing::TempDir() + "/ct_params_shape.bin";
  util::BinaryWriter writer(path);
  writer.WriteU64(1);
  writer.WriteString("layer.weight");
  writer.WriteU64(2);
  writer.WriteU64(2);
  writer.WriteFloatVector({1.0f, 2.0f, 3.0f});  // 3 values for a 2x2
  ASSERT_TRUE(writer.Close().ok());
  const util::Status status = LoadParameters(model.Parameters(), path);
  EXPECT_EQ(status.code(), util::StatusCode::kDataLoss);
}

TEST(SerializationTest, MissingParametersFailUnlessPartialAllowed) {
  util::Rng rng(29);
  Linear model(4, 3, rng, "layer");
  const std::string path = ::testing::TempDir() + "/ct_params_partial.bin";
  std::vector<Parameter> just_weight = {model.Parameters()[0]};
  ASSERT_TRUE(SaveParameters(just_weight, path).ok());
  const util::Status status = LoadParameters(model.Parameters(), path);
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("layer.bias"), std::string::npos)
      << status;
  EXPECT_TRUE(
      LoadParameters(model.Parameters(), path, /*allow_partial=*/true).ok());
}

}  // namespace
}  // namespace nn
}  // namespace contratopic
