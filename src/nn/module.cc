#include "nn/module.h"

#include <memory>
#include <mutex>

#include "tensor/kernels.h"
#include "util/string_util.h"

namespace contratopic {
namespace nn {

using autodiff::ApplyMask;
using autodiff::BroadcastRowAdd;
using autodiff::BroadcastRowMul;
using autodiff::BroadcastRowSub;
using autodiff::ColMean;
using autodiff::MatMul;
using autodiff::Rsqrt;
using autodiff::Square;

// W^T (out x in rows: one output feature's weights contiguous, the layout
// every serving GEMM reads) in each precision, built on first eval-mode use
// and dropped whenever the layer enters training mode (the optimizer then
// rewrites the weight in place). The mutex guards the pointers only:
// eval-mode forwards run on serving pool workers, and each takes its own
// reference before the GEMM, so the GEMMs themselves run concurrently.
struct PackedWeightCache {
  std::mutex mu;
  std::shared_ptr<const Tensor> fp32;
  std::shared_ptr<const tensor::Bf16Matrix> bf16;
  std::shared_ptr<const tensor::Int8Matrix> int8;
};

namespace {

// Returns *slot, filling it with build() first when it is empty. `mu` guards
// the slot; the caller's reference keeps the entry alive past a drop.
template <typename T, typename Build>
std::shared_ptr<const T> Cached(std::mutex& mu, std::shared_ptr<const T>* slot,
                                Build build) {
  std::lock_guard<std::mutex> lock(mu);
  if (*slot == nullptr) *slot = std::make_shared<const T>(build());
  return *slot;
}

}  // namespace

Linear::Linear(int64_t in_features, int64_t out_features, util::Rng& rng,
               std::string name, bool with_bias)
    : name_(std::move(name)),
      weight_(Var::Leaf(Tensor::GlorotUniform(in_features, out_features, rng),
                        /*requires_grad=*/true)),
      packed_(std::make_shared<PackedWeightCache>()) {
  if (with_bias) {
    bias_ = Var::Leaf(Tensor::Zeros(1, out_features), /*requires_grad=*/true);
  }
}

Var Linear::Forward(const Var& x) {
  if (!training_) return EvalForward(x.value());
  Var out = MatMul(x, weight_);
  if (bias_.defined()) out = BroadcastRowAdd(out, bias_);
  return out;
}

Var Linear::EvalForward(const Tensor& x) {
  // The GEMM runs outside the autodiff graph against the cached W^T and the
  // result enters it as a constant (no eval-mode caller differentiates
  // through a frozen layer). fp32 computes the same dots as the training
  // path, so its bits match MatMul(x, W) + b exactly.
  PackedWeightCache& cache = *packed_;
  const float* bias = bias_.defined() ? bias_.value().data() : nullptr;
  tensor::ServePrecision precision = tensor::ActiveServePrecision();
  if (!tensor::QuantizableShape(weight_.rows(), weight_.cols())) {
    precision = tensor::ServePrecision::kFp32;
  }
  const auto transposed = [this] {
    return tensor::Transposed(weight_.value());
  };
  switch (precision) {
    case tensor::ServePrecision::kBf16: {
      const auto wt = Cached(cache.mu, &cache.bf16, [&] {
        return tensor::Bf16FromTensor(transposed());
      });
      return Var::Constant(tensor::MatMulBf16T(x, *wt, bias));
    }
    case tensor::ServePrecision::kInt8: {
      const auto wt = Cached(cache.mu, &cache.int8, [&] {
        return tensor::Int8FromTensor(transposed());
      });
      return Var::Constant(tensor::MatMulInt8T(x, *wt, bias));
    }
    case tensor::ServePrecision::kFp32:
      break;
  }
  const auto wt = Cached(cache.mu, &cache.fp32, transposed);
  Tensor out = tensor::MatMulNew(x, false, *wt, true);
  if (bias_.defined()) {
    tensor::BroadcastRow(out, bias_.value(), tensor::BinaryOp::kAdd, &out);
  }
  return Var::Constant(std::move(out));
}

void Linear::SetTraining(bool training) {
  Module::SetTraining(training);
  if (!training) return;
  std::lock_guard<std::mutex> lock(packed_->mu);
  packed_->fp32.reset();
  packed_->bf16.reset();
  packed_->int8.reset();
}

std::vector<Parameter> Linear::Parameters() {
  std::vector<Parameter> params = {{name_ + ".weight", weight_}};
  if (bias_.defined()) params.push_back({name_ + ".bias", bias_});
  return params;
}

BatchNorm1d::BatchNorm1d(int64_t features, std::string name, float momentum,
                         float eps)
    : name_(std::move(name)),
      momentum_(momentum),
      eps_(eps),
      gamma_(Var::Leaf(Tensor::Ones(1, features), /*requires_grad=*/true)),
      beta_(Var::Leaf(Tensor::Zeros(1, features), /*requires_grad=*/true)),
      running_mean_(Tensor::Zeros(1, features)),
      running_var_(Tensor::Ones(1, features)) {}

Var BatchNorm1d::Forward(const Var& x) {
  Var mean;
  Var var;
  if (training_ && x.rows() > 1) {
    mean = ColMean(x);
    var = ColMean(Square(BroadcastRowSub(x, mean)));
    // Update running statistics outside the graph.
    running_mean_.Scale(1.0f - momentum_);
    running_mean_.AddScaledInPlace(mean.value(), momentum_);
    running_var_.Scale(1.0f - momentum_);
    running_var_.AddScaledInPlace(var.value(), momentum_);
  } else {
    mean = Var::Constant(running_mean_);
    var = Var::Constant(running_var_);
  }
  Var normalized =
      BroadcastRowMul(BroadcastRowSub(x, mean), Rsqrt(var, eps_));
  return BroadcastRowAdd(BroadcastRowMul(normalized, gamma_), beta_);
}

std::vector<Parameter> BatchNorm1d::Parameters() {
  return {{name_ + ".gamma", gamma_}, {name_ + ".beta", beta_}};
}

std::vector<NamedTensor> BatchNorm1d::Buffers() {
  return {{name_ + ".running_mean", &running_mean_},
          {name_ + ".running_var", &running_var_}};
}

Dropout::Dropout(float rate, util::Rng& rng) : rate_(rate), rng_(&rng) {
  CHECK_GE(rate, 0.0f);
  CHECK_LT(rate, 1.0f);
}

Var Dropout::Forward(const Var& x) {
  if (!training_ || rate_ <= 0.0f) return x;
  const float keep = 1.0f - rate_;
  Tensor mask(x.rows(), x.cols());
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask.data()[i] = rng_->Uniform() < keep ? 1.0f / keep : 0.0f;
  }
  return ApplyMask(x, mask);
}

Var Activate(const Var& x, Activation activation) {
  switch (activation) {
    case Activation::kRelu:
      return autodiff::Relu(x);
    case Activation::kSelu:
      return autodiff::Selu(x);
    case Activation::kSoftplus:
      return autodiff::Softplus(x);
    case Activation::kTanh:
      return autodiff::Tanh(x);
    case Activation::kSigmoid:
      return autodiff::Sigmoid(x);
    case Activation::kNone:
      return x;
  }
  return x;
}

Activation ActivationFromName(const std::string& name) {
  if (name == "relu") return Activation::kRelu;
  if (name == "selu") return Activation::kSelu;
  if (name == "softplus") return Activation::kSoftplus;
  if (name == "tanh") return Activation::kTanh;
  if (name == "sigmoid") return Activation::kSigmoid;
  if (name == "none") return Activation::kNone;
  LOG(FATAL) << "unknown activation: " << name;
  return Activation::kNone;
}

Mlp::Mlp(const Config& config, util::Rng& rng, std::string name)
    : config_(config) {
  CHECK_GE(config.layer_sizes.size(), 2u);
  for (size_t i = 0; i + 1 < config.layer_sizes.size(); ++i) {
    layers_.emplace_back(config.layer_sizes[i], config.layer_sizes[i + 1], rng,
                         util::StrFormat("%s.l%zu", name.c_str(), i));
  }
  if (config.dropout_rate > 0.0f) {
    dropout_ = std::make_unique<Dropout>(config.dropout_rate, rng);
  }
  if (config.batch_norm) {
    batch_norm_ = std::make_unique<BatchNorm1d>(config.layer_sizes.back(),
                                                name + ".bn");
  }
}

Var Mlp::Forward(const Var& x) {
  Var h = x;
  for (auto& layer : layers_) {
    h = Activate(layer.Forward(h), config_.activation);
  }
  if (dropout_ != nullptr) h = dropout_->Forward(h);
  if (batch_norm_ != nullptr) h = batch_norm_->Forward(h);
  return h;
}

std::vector<Parameter> Mlp::Parameters() {
  std::vector<Parameter> params;
  for (auto& layer : layers_) {
    for (auto& p : layer.Parameters()) params.push_back(p);
  }
  if (batch_norm_ != nullptr) {
    for (auto& p : batch_norm_->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<NamedTensor> Mlp::Buffers() {
  if (batch_norm_ == nullptr) return {};
  return batch_norm_->Buffers();
}

void Mlp::SetTraining(bool training) {
  Module::SetTraining(training);
  for (auto& layer : layers_) layer.SetTraining(training);
  if (dropout_ != nullptr) dropout_->SetTraining(training);
  if (batch_norm_ != nullptr) batch_norm_->SetTraining(training);
}

}  // namespace nn
}  // namespace contratopic
