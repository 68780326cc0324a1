#ifndef CONTRATOPIC_NN_MODULE_H_
#define CONTRATOPIC_NN_MODULE_H_

// Minimal neural-network layer abstractions over the autodiff engine.
// Parameters are persistent leaf Vars; each forward pass builds a fresh
// graph that references them, so gradients land on the same nodes the
// optimizer sees.

#include <memory>
#include <string>
#include <vector>

#include "tensor/autodiff.h"
#include "tensor/quant.h"
#include "util/rng.h"

namespace contratopic {
namespace nn {

using autodiff::Var;
using tensor::Tensor;

// A named trainable parameter (name used for debugging/serialization).
struct Parameter {
  std::string name;
  Var var;
};

// A named reference to a persistent non-trainable tensor (e.g. batch-norm
// running statistics): state that evaluation-mode forward passes depend
// on but the optimizer never touches. Checkpoints must capture buffers
// alongside parameter values or a reloaded model infers differently
// (serve/checkpoint.h). The pointee is owned by the module and stays
// valid for the module's lifetime.
struct NamedTensor {
  std::string name;
  Tensor* tensor;
};

class Module {
 public:
  virtual ~Module() = default;

  // All trainable parameters of this module (recursively).
  virtual std::vector<Parameter> Parameters() = 0;

  // All persistent non-trainable tensors of this module (recursively).
  virtual std::vector<NamedTensor> Buffers() { return {}; }

  // Training vs evaluation mode (affects dropout / batch norm).
  virtual void SetTraining(bool training) { training_ = training; }
  bool training() const { return training_; }

  void ZeroGrad() {
    for (auto& p : Parameters()) p.var.ZeroGrad();
  }

 protected:
  bool training_ = true;
};

// Lazily built packed W^T for a Linear layer's eval-mode path (module.cc
// owns the definition). Shared across copies of the layer -- copies share
// the same weight node, so one cache serves all of them.
struct PackedWeightCache;

// Fully connected layer: y = x W + b.
//
// In evaluation mode Forward computes y against a cached W^T in the active
// serving precision (tensor/quant.h) and returns a constant. At fp32 --
// and for any weight too small to be worth quantizing -- the bits equal
// the training path's MatMul(x, W) + b; bf16 and int8 trade bits for
// throughput under the documented tolerance contract (DESIGN.md §15).
// The cache is keyed on nothing but the training flag: code that rewrites
// the weight outside training must pass through SetTraining(true).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, util::Rng& rng,
         std::string name = "linear", bool with_bias = true);

  Var Forward(const Var& x);

  // Entering training mode drops the cached W^T in every precision.
  void SetTraining(bool training) override;

  std::vector<Parameter> Parameters() override;

  const Var& weight() const { return weight_; }
  const Var& bias() const { return bias_; }

 private:
  Var EvalForward(const Tensor& x);

  std::string name_;
  Var weight_;  // in x out
  Var bias_;    // 1 x out (undefined if with_bias == false)
  std::shared_ptr<PackedWeightCache> packed_;
};

// 1-D batch normalization over feature columns, with running statistics
// for evaluation mode (matches the paper's encoder: MLP -> dropout -> BN).
class BatchNorm1d : public Module {
 public:
  explicit BatchNorm1d(int64_t features, std::string name = "bn",
                       float momentum = 0.1f, float eps = 1e-5f);

  Var Forward(const Var& x);

  std::vector<Parameter> Parameters() override;
  std::vector<NamedTensor> Buffers() override;

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  std::string name_;
  float momentum_;
  float eps_;
  Var gamma_;  // 1 x features
  Var beta_;   // 1 x features
  Tensor running_mean_;
  Tensor running_var_;
};

// Inverted dropout: scales kept activations by 1/(1-rate) during training.
class Dropout : public Module {
 public:
  Dropout(float rate, util::Rng& rng);

  Var Forward(const Var& x);

  std::vector<Parameter> Parameters() override { return {}; }

 private:
  float rate_;
  util::Rng* rng_;
};

enum class Activation { kRelu, kSelu, kSoftplus, kTanh, kSigmoid, kNone };

// Applies the activation as an autodiff op.
Var Activate(const Var& x, Activation activation);

// Parses "relu" / "selu" / ... (CHECK-fails on unknown names).
Activation ActivationFromName(const std::string& name);

// Multi-layer perceptron: [Linear -> activation] x N, with optional
// trailing dropout + batch norm (the paper's encoder configuration).
class Mlp : public Module {
 public:
  struct Config {
    std::vector<int64_t> layer_sizes;  // e.g. {V, 256, 256}
    Activation activation = Activation::kSelu;
    float dropout_rate = 0.0f;   // applied after the last activation
    bool batch_norm = false;     // applied after dropout
  };

  Mlp(const Config& config, util::Rng& rng, std::string name = "mlp");

  Var Forward(const Var& x);

  std::vector<Parameter> Parameters() override;
  std::vector<NamedTensor> Buffers() override;
  void SetTraining(bool training) override;

 private:
  Config config_;
  std::vector<Linear> layers_;
  std::unique_ptr<Dropout> dropout_;
  std::unique_ptr<BatchNorm1d> batch_norm_;
};

}  // namespace nn
}  // namespace contratopic

#endif  // CONTRATOPIC_NN_MODULE_H_
