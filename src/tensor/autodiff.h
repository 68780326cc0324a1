#ifndef CONTRATOPIC_TENSOR_AUTODIFF_H_
#define CONTRATOPIC_TENSOR_AUTODIFF_H_

// Define-by-run reverse-mode automatic differentiation over 2-D Tensors.
// Each op computes its output eagerly and records a Node that remembers its
// parents and a backward_fn that pushes gradients to them. Backward() runs
// a reverse topological sweep from a scalar loss. This is the substrate all
// neural topic models in this repo train on (the paper's models are PyTorch
// VAEs; see DESIGN.md §2).
//
// Op outputs, gradients and backward temporaries are plain Tensors, so
// while a training run has a BufferPool installed (tensor/arena.h,
// DESIGN.md §14) they recycle step-shaped buffers instead of hitting the
// heap; Backward releases each intermediate gradient as soon as it has been
// consumed.
//
// Typical use:
//   Var w = Var::Leaf(Tensor::GlorotUniform(10, 4, rng),
//                     /*requires_grad=*/true);
//   Var x = Var::Constant(batch);
//   Var loss = MeanAll(Square(Sub(MatMul(x, w), targets)));
//   Backward(loss);
//   // w.grad() now holds dloss/dw.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace contratopic {
namespace autodiff {

using tensor::Tensor;

class Node;
using NodePtr = std::shared_ptr<Node>;

// One vertex of the computation graph.
class Node {
 public:
  Tensor value;
  Tensor grad;  // allocated lazily by AccumGrad
  bool requires_grad = false;
  std::vector<NodePtr> parents;
  // Distributes this node's grad into parents' grads. Null for leaves.
  std::function<void(Node*)> backward_fn;

  int64_t rows() const { return value.rows(); }
  int64_t cols() const { return value.cols(); }

  void AccumGrad(const Tensor& g);
};

// Value-semantics handle to a Node.
class Var {
 public:
  Var() = default;
  explicit Var(NodePtr node) : node_(std::move(node)) {}

  // Trainable or frozen leaf.
  static Var Leaf(Tensor value, bool requires_grad);
  // Non-differentiable input (data batches, masks, noise).
  static Var Constant(Tensor value) { return Leaf(std::move(value), false); }

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  const Tensor& grad() const { return node_->grad; }
  bool requires_grad() const { return node_->requires_grad; }
  void ZeroGrad();
  const NodePtr& node() const { return node_; }

  int64_t rows() const { return node_->rows(); }
  int64_t cols() const { return node_->cols(); }

 private:
  NodePtr node_;
};

// Runs reverse-mode accumulation from `loss` (must be 1x1). Gradients
// accumulate into every reachable leaf with requires_grad. Intermediate
// (non-leaf) gradients are released as soon as their backward_fn has
// consumed them, so only leaf gradients survive the sweep.
void Backward(const Var& loss);

// Clears every gradient reachable from `root`, intermediates and leaves
// alike. Multi-objective training runs several Backward sweeps over one
// shared graph and wipes it between objectives, so each objective's leaf
// gradients start from zero.
void ClearGraphGrads(const Var& root);

// ---------------------------------------------------------------------------
// Differentiable ops. All return fresh Vars; inputs are never modified.
// ---------------------------------------------------------------------------

// Elementwise (same shape).
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
Var Div(const Var& a, const Var& b);

// Scalar broadcast.
Var AddScalar(const Var& a, float s);
Var MulScalar(const Var& a, float s);
Var Neg(const Var& a);

// op(A) @ op(B) with optional transposes.
Var MatMul(const Var& a, const Var& b, bool trans_a = false,
           bool trans_b = false);

// A^T as its own node (for broadcast plumbing; matmuls should prefer the
// transpose flags above).
Var Transpose(const Var& a);

// Elementwise nonlinearities.
Var Exp(const Var& a);
// log(x + eps); eps guards against log(0) for probability inputs.
Var Log(const Var& a, float eps = 1e-12f);
Var Square(const Var& a);
Var Sqrt(const Var& a, float eps = 1e-12f);
// 1/sqrt(x + eps).
Var Rsqrt(const Var& a, float eps = 1e-12f);
Var Relu(const Var& a);
Var Selu(const Var& a);
Var Softplus(const Var& a);
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);

// Row-wise softmax / log-softmax.
Var SoftmaxRows(const Var& a);
Var LogSoftmaxRows(const Var& a);

// out[r,0] = log(sum_c mask[r,c] * exp(a[r,c])). Mask is a constant 0/1
// tensor; used for contrastive losses (positives/denominator masks).
Var MaskedLogSumExpRows(const Var& a, const Tensor& mask);
// Unmasked variant.
Var LogSumExpRows(const Var& a);

// Reductions.
Var SumAll(const Var& a);   // -> 1x1
Var MeanAll(const Var& a);  // -> 1x1
Var RowSum(const Var& a);   // -> rows x 1
Var ColSum(const Var& a);   // -> 1 x cols
Var ColMean(const Var& a);  // -> 1 x cols

// Broadcast a column (rows x 1) or row (1 x cols) against a matrix.
Var BroadcastColAdd(const Var& a, const Var& col);
Var BroadcastColSub(const Var& a, const Var& col);
Var BroadcastColMul(const Var& a, const Var& col);
Var BroadcastColDiv(const Var& a, const Var& col);
Var BroadcastRowAdd(const Var& a, const Var& row);
Var BroadcastRowSub(const Var& a, const Var& row);
Var BroadcastRowMul(const Var& a, const Var& row);
Var BroadcastRowDiv(const Var& a, const Var& row);

// Rows scaled to unit L2 norm.
Var RowL2Normalize(const Var& a, float eps = 1e-12f);

// Stacks inputs vertically; all must share the column count.
Var ConcatRows(const std::vector<Var>& parts);

// Gathers columns by index (duplicates allowed); gradient scatters back.
Var SelectColumns(const Var& a, const std::vector<int>& indices);

// Gathers rows by index (duplicates allowed) -- TSCTM's quantization-index
// anchor lookup. The gradient scatter-adds back in serial gather order, so
// repeated indices accumulate deterministically at any thread count.
Var GatherRows(const Var& a, const std::vector<int>& indices);

// Multiplies by a constant 0/1 (or scaled) mask; used for dropout.
Var ApplyMask(const Var& a, const Tensor& mask);

}  // namespace autodiff
}  // namespace contratopic

#endif  // CONTRATOPIC_TENSOR_AUTODIFF_H_
