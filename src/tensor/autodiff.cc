#include "tensor/autodiff.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>
#include <utility>

#include "tensor/kernels.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace contratopic {
namespace autodiff {

using tensor::BinaryOp;
using tensor::ParallelElems;
using tensor::ParallelRows;

namespace {
// Fixed row grid for backward reductions over the batch dimension (the
// BroadcastRowOp bias gradient). Matches the ColSum grid in kernels.cc: the
// grid depends only on the range, never on thread count, so the reduction
// order — and the result — is identical at any parallelism level.
constexpr int64_t kGradReduceGridRows = 256;
}  // namespace

void Node::AccumGrad(const Tensor& g) {
  if (grad.empty()) {
    grad = Tensor::Zeros(rows(), cols());
  }
  grad.AddInPlace(g);
}

Var Var::Leaf(Tensor value, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return Var(std::move(node));
}

void Var::ZeroGrad() {
  if (!node_->grad.empty()) node_->grad.Fill(0.0f);
}

namespace {

// Records an op node around its already-computed output. The backward
// closure is kept only when some parent needs a gradient.
Var MakeNode(Tensor value, std::vector<Var> parents,
             std::function<void(Node*)> backward_fn) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  for (auto& p : parents) {
    if (p.requires_grad()) node->requires_grad = true;
    node->parents.push_back(p.node());
  }
  if (node->requires_grad) node->backward_fn = std::move(backward_fn);
  return Var(std::move(node));
}

void TopoSort(Node* root, std::vector<Node*>* order) {
  // Iterative DFS post-order.
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(root, 0);
  visited.insert(root);
  while (!stack.empty()) {
    auto& [node, child] = stack.back();
    if (child < node->parents.size()) {
      Node* next = node->parents[child].get();
      ++child;
      if (next->requires_grad && visited.insert(next).second) {
        stack.emplace_back(next, 0);
      }
    } else {
      order->push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Var& loss) {
  CHECK_EQ(loss.value().numel(), 1) << "Backward expects a scalar loss";
  if (!loss.requires_grad()) return;
  std::vector<Node*> order;
  TopoSort(loss.node().get(), &order);
  loss.node()->AccumGrad(Tensor::Scalar(1.0f));
  // Release each intermediate gradient as soon as its backward_fn has
  // consumed it: in reverse topological order a node's grad is complete
  // before its backward_fn runs and is never read after, so this is a
  // linear-scan liveness release along the fixed backward schedule (the
  // freed buffers feed the next allocations through the training arena).
  // Leaves keep their grads for the optimizer.
  // Post-order puts the loss last; walk backwards.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn && !node->grad.empty()) {
      node->backward_fn(node);
    }
    if (!node->parents.empty()) {
      node->grad = Tensor();
    }
  }
}

void ClearGraphGrads(const Var& root) {
  if (!root.defined() || !root.requires_grad()) return;
  std::vector<Node*> order;
  TopoSort(root.node().get(), &order);
  for (Node* node : order) node->grad = Tensor();
}

// ---------------------------------------------------------------------------
// Elementwise binary ops.
// ---------------------------------------------------------------------------

Var Add(const Var& a, const Var& b) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK_EQ(a.cols(), b.cols());
  Tensor out = a.value();
  out.AddInPlace(b.value());
  return MakeNode(std::move(out), {a, b}, [](Node* n) {
    if (n->parents[0]->requires_grad) n->parents[0]->AccumGrad(n->grad);
    if (n->parents[1]->requires_grad) n->parents[1]->AccumGrad(n->grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK_EQ(a.cols(), b.cols());
  Tensor out = a.value();
  out.AddScaledInPlace(b.value(), -1.0f);
  return MakeNode(std::move(out), {a, b}, [](Node* n) {
    if (n->parents[0]->requires_grad) n->parents[0]->AccumGrad(n->grad);
    if (n->parents[1]->requires_grad) {
      Tensor g = n->grad;
      g.Scale(-1.0f);
      n->parents[1]->AccumGrad(g);
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK_EQ(a.cols(), b.cols());
  Tensor out = a.value();
  float* op = out.data();
  const float* bp = b.value().data();
  ParallelElems(out.numel(), [op, bp](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) op[i] *= bp[i];
  });
  return MakeNode(std::move(out), {a, b}, [](Node* n) {
    const Tensor& av = n->parents[0]->value;
    const Tensor& bv = n->parents[1]->value;
    if (n->parents[0]->requires_grad) {
      Tensor g = n->grad;
      float* gp = g.data();
      const float* bp = bv.data();
      ParallelElems(g.numel(), [gp, bp](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) gp[i] *= bp[i];
      });
      n->parents[0]->AccumGrad(g);
    }
    if (n->parents[1]->requires_grad) {
      Tensor g = n->grad;
      float* gp = g.data();
      const float* ap = av.data();
      ParallelElems(g.numel(), [gp, ap](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) gp[i] *= ap[i];
      });
      n->parents[1]->AccumGrad(g);
    }
  });
}

Var Div(const Var& a, const Var& b) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK_EQ(a.cols(), b.cols());
  Tensor out = a.value();
  float* op = out.data();
  const float* bp = b.value().data();
  ParallelElems(out.numel(), [op, bp](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) op[i] /= bp[i];
  });
  return MakeNode(std::move(out), {a, b}, [](Node* n) {
    const Tensor& av = n->parents[0]->value;
    const Tensor& bv = n->parents[1]->value;
    if (n->parents[0]->requires_grad) {
      Tensor g = n->grad;
      float* gp = g.data();
      const float* bp = bv.data();
      ParallelElems(g.numel(), [gp, bp](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) gp[i] /= bp[i];
      });
      n->parents[0]->AccumGrad(g);
    }
    if (n->parents[1]->requires_grad) {
      Tensor g = n->grad;
      float* gp = g.data();
      const float* ap = av.data();
      const float* bp = bv.data();
      ParallelElems(g.numel(), [gp, ap, bp](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float bi = bp[i];
          gp[i] *= -ap[i] / (bi * bi);
        }
      });
      n->parents[1]->AccumGrad(g);
    }
  });
}

Var AddScalar(const Var& a, float s) {
  Tensor out = a.value();
  out.Apply([s](float v) { return v + s; });
  return MakeNode(std::move(out), {a},
                  [](Node* n) { n->parents[0]->AccumGrad(n->grad); });
}

Var MulScalar(const Var& a, float s) {
  Tensor out = a.value();
  out.Scale(s);
  return MakeNode(std::move(out), {a}, [s](Node* n) {
    Tensor g = n->grad;
    g.Scale(s);
    n->parents[0]->AccumGrad(g);
  });
}

Var Neg(const Var& a) { return MulScalar(a, -1.0f); }

// ---------------------------------------------------------------------------
// MatMul.
// ---------------------------------------------------------------------------

Var MatMul(const Var& a, const Var& b, bool trans_a, bool trans_b) {
  const int64_t rows = trans_a ? a.cols() : a.rows();
  const int64_t cols = trans_b ? b.rows() : b.cols();
  const int64_t inner_a = trans_a ? a.rows() : a.cols();
  const int64_t inner_b = trans_b ? b.cols() : b.rows();
  CHECK_EQ(inner_a, inner_b);
  Tensor out(rows, cols);
  tensor::MatMul(a.value(), trans_a, b.value(), trans_b, &out);
  return MakeNode(std::move(out), {a, b}, [trans_a, trans_b](Node* n) {
    const Tensor& g = n->grad;
    const Tensor& av = n->parents[0]->value;
    const Tensor& bv = n->parents[1]->value;
    if (n->parents[0]->requires_grad) {
      Tensor da;
      if (!trans_a && !trans_b) {
        da = tensor::MatMulNew(g, false, bv, true);  // g B^T
      } else if (!trans_a && trans_b) {
        da = tensor::MatMulNew(g, false, bv, false);  // g B
      } else if (trans_a && !trans_b) {
        da = tensor::MatMulNew(bv, false, g, true);  // B g^T
      } else {
        da = tensor::MatMulNew(bv, true, g, true);  // B^T g^T
      }
      n->parents[0]->AccumGrad(da);
    }
    if (n->parents[1]->requires_grad) {
      Tensor db;
      if (!trans_a && !trans_b) {
        db = tensor::MatMulNew(av, true, g, false);  // A^T g
      } else if (!trans_a && trans_b) {
        db = tensor::MatMulNew(g, true, av, false);  // g^T A
      } else if (trans_a && !trans_b) {
        db = tensor::MatMulNew(av, false, g, false);  // A g
      } else {
        db = tensor::MatMulNew(g, true, av, true);  // g^T A^T
      }
      n->parents[1]->AccumGrad(db);
    }
  });
}

Var Transpose(const Var& a) {
  return MakeNode(tensor::Transposed(a.value()), {a}, [](Node* n) {
    n->parents[0]->AccumGrad(tensor::Transposed(n->grad));
  });
}

// ---------------------------------------------------------------------------
// Elementwise nonlinearities.
// ---------------------------------------------------------------------------

namespace {

// Helper for unary ops whose gradient only needs input and/or output
// values. The forward callback transforms a copy of the input in place --
// one indirect call per tensor, so the per-element math inlines into the
// caller's loop (a per-element std::function made SELU as expensive as the
// encoder's small GEMMs). The backward callback fills dx over the element
// sub-range [lo, hi); it is invoked from pool workers on disjoint ranges,
// so it must write only dx[lo, hi) and be pure otherwise.
Var UnaryOp(const Var& a,
            const std::function<void(float* d, int64_t count)>& fwd,
            std::function<void(const float* x, const float* y, const float* g,
                               float* dx, int64_t lo, int64_t hi)>
                bwd) {
  Tensor out = a.value();
  fwd(out.data(), out.numel());
  return MakeNode(std::move(out), {a}, [bwd](Node* n) {
    Tensor dx(n->rows(), n->cols());
    const float* xp = n->parents[0]->value.data();
    const float* yp = n->value.data();
    const float* gp = n->grad.data();
    float* dp = dx.data();
    ParallelElems(dx.numel(),
                  [&bwd, xp, yp, gp, dp](int64_t lo, int64_t hi) {
                    bwd(xp, yp, gp, dp, lo, hi);
                  });
    n->parents[0]->AccumGrad(dx);
  });
}
}  // namespace

Var Exp(const Var& a) {
  return UnaryOp(
      a,
      [](float* d, int64_t count) {
        for (int64_t i = 0; i < count; ++i) d[i] = std::exp(d[i]);
      },
      [](const float*, const float* y, const float* g, float* dx, int64_t lo,
         int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) dx[i] = g[i] * y[i];
      });
}

Var Log(const Var& a, float eps) {
  return UnaryOp(
      a,
      [eps](float* d, int64_t count) {
        for (int64_t i = 0; i < count; ++i) d[i] = std::log(d[i] + eps);
      },
      [eps](const float* x, const float*, const float* g, float* dx,
            int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) dx[i] = g[i] / (x[i] + eps);
      });
}

Var Square(const Var& a) {
  return UnaryOp(
      a,
      [](float* d, int64_t count) {
        for (int64_t i = 0; i < count; ++i) d[i] = d[i] * d[i];
      },
      [](const float* x, const float*, const float* g, float* dx, int64_t lo,
         int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) dx[i] = 2.0f * g[i] * x[i];
      });
}

Var Sqrt(const Var& a, float eps) {
  return UnaryOp(
      a,
      [eps](float* d, int64_t count) {
        for (int64_t i = 0; i < count; ++i) d[i] = std::sqrt(d[i] + eps);
      },
      [](const float*, const float* y, const float* g, float* dx, int64_t lo,
         int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) dx[i] = 0.5f * g[i] / y[i];
      });
}

Var Rsqrt(const Var& a, float eps) {
  return UnaryOp(
      a,
      [eps](float* d, int64_t count) {
        for (int64_t i = 0; i < count; ++i) {
          d[i] = 1.0f / std::sqrt(d[i] + eps);
        }
      },
      [](const float*, const float* y, const float* g, float* dx, int64_t lo,
         int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float yi = y[i];
          dx[i] = -0.5f * g[i] * yi * yi * yi;
        }
      });
}

Var Relu(const Var& a) {
  return UnaryOp(
      a,
      [](float* d, int64_t count) {
        for (int64_t i = 0; i < count; ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
      },
      [](const float* x, const float*, const float* g, float* dx, int64_t lo,
         int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          dx[i] = x[i] > 0.0f ? g[i] : 0.0f;
        }
      });
}

namespace {
constexpr float kSeluScale = 1.0507009873554805f;
constexpr float kSeluAlpha = 1.6732632423543772f;
}  // namespace

Var Selu(const Var& a) {
  return UnaryOp(
      a,
      [](float* d, int64_t count) {
        for (int64_t i = 0; i < count; ++i) {
          const float v = d[i];
          d[i] = v > 0.0f ? kSeluScale * v
                          : kSeluScale * kSeluAlpha * (std::exp(v) - 1.0f);
        }
      },
      [](const float* x, const float*, const float* g, float* dx, int64_t lo,
         int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float xi = x[i];
          const float d = xi > 0.0f
                              ? kSeluScale
                              : kSeluScale * kSeluAlpha * std::exp(xi);
          dx[i] = g[i] * d;
        }
      });
}

Var Softplus(const Var& a) {
  return UnaryOp(
      a,
      [](float* d, int64_t count) {
        for (int64_t i = 0; i < count; ++i) {
          // Numerically stable log(1 + e^x).
          const float v = d[i];
          d[i] = v > 20.0f ? v : std::log1p(std::exp(v));
        }
      },
      [](const float* x, const float*, const float* g, float* dx, int64_t lo,
         int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float s = 1.0f / (1.0f + std::exp(-x[i]));
          dx[i] = g[i] * s;
        }
      });
}

Var Tanh(const Var& a) {
  return UnaryOp(
      a,
      [](float* d, int64_t count) {
        for (int64_t i = 0; i < count; ++i) d[i] = std::tanh(d[i]);
      },
      [](const float*, const float* y, const float* g, float* dx, int64_t lo,
         int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float yi = y[i];
          dx[i] = g[i] * (1.0f - yi * yi);
        }
      });
}

Var Sigmoid(const Var& a) {
  return UnaryOp(
      a,
      [](float* d, int64_t count) {
        for (int64_t i = 0; i < count; ++i) {
          d[i] = 1.0f / (1.0f + std::exp(-d[i]));
        }
      },
      [](const float*, const float* y, const float* g, float* dx, int64_t lo,
         int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float yi = y[i];
          dx[i] = g[i] * yi * (1.0f - yi);
        }
      });
}

// ---------------------------------------------------------------------------
// Softmax family.
// ---------------------------------------------------------------------------

Var SoftmaxRows(const Var& a) {
  Tensor out = a.value();
  tensor::SoftmaxRowsInPlace(&out);
  return MakeNode(std::move(out), {a}, [](Node* n) {
    const Tensor& y = n->value;
    const Tensor& g = n->grad;
    Tensor dx(y.rows(), y.cols());
    ParallelRows(y.rows(), y.cols(), [&](int64_t r_lo, int64_t r_hi) {
      for (int64_t r = r_lo; r < r_hi; ++r) {
        const float* yr = y.row(r);
        const float* gr = g.row(r);
        double dot = 0.0;
        for (int64_t c = 0; c < y.cols(); ++c) {
          dot += static_cast<double>(gr[c]) * yr[c];
        }
        float* dr = dx.row(r);
        for (int64_t c = 0; c < y.cols(); ++c) {
          dr[c] = yr[c] * (gr[c] - static_cast<float>(dot));
        }
      }
    });
    n->parents[0]->AccumGrad(dx);
  });
}

Var LogSoftmaxRows(const Var& a) {
  Tensor out = a.value();
  tensor::LogSoftmaxRowsInPlace(&out);
  return MakeNode(std::move(out), {a}, [](Node* n) {
    const Tensor& y = n->value;  // log-softmax
    const Tensor& g = n->grad;
    Tensor dx(y.rows(), y.cols());
    ParallelRows(y.rows(), y.cols(), [&](int64_t r_lo, int64_t r_hi) {
      for (int64_t r = r_lo; r < r_hi; ++r) {
        const float* yr = y.row(r);
        const float* gr = g.row(r);
        double gsum = 0.0;
        for (int64_t c = 0; c < y.cols(); ++c) gsum += gr[c];
        float* dr = dx.row(r);
        for (int64_t c = 0; c < y.cols(); ++c) {
          dr[c] = gr[c] - static_cast<float>(gsum) * std::exp(yr[c]);
        }
      }
    });
    n->parents[0]->AccumGrad(dx);
  });
}

Var MaskedLogSumExpRows(const Var& a, const Tensor& mask) {
  Tensor out(a.rows(), 1);
  tensor::LogSumExpRows(a.value(), &mask, &out);
  return MakeNode(std::move(out), {a}, [mask](Node* n) {
    const Tensor& x = n->parents[0]->value;
    const Tensor& lse = n->value;
    const Tensor& g = n->grad;  // rows x 1
    Tensor dx(x.rows(), x.cols());
    ParallelRows(x.rows(), x.cols(), [&](int64_t r_lo, int64_t r_hi) {
      for (int64_t r = r_lo; r < r_hi; ++r) {
        const float out_r = lse.at(r, 0);
        if (out_r <= -1e29f) continue;  // Empty mask row: no gradient.
        const float gr = g.at(r, 0);
        const float* xr = x.row(r);
        const float* mr = mask.row(r);
        float* dr = dx.row(r);
        for (int64_t c = 0; c < x.cols(); ++c) {
          dr[c] = mr[c] > 0.0f ? gr * mr[c] * std::exp(xr[c] - out_r) : 0.0f;
        }
      }
    });
    n->parents[0]->AccumGrad(dx);
  });
}

Var LogSumExpRows(const Var& a) {
  return MaskedLogSumExpRows(a, Tensor::Ones(a.rows(), a.cols()));
}

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

Var SumAll(const Var& a) {
  return MakeNode(Tensor::Scalar(a.value().Sum()), {a}, [](Node* n) {
    const float g = n->grad.scalar();
    Tensor dx = Tensor::Full(n->parents[0]->rows(), n->parents[0]->cols(), g);
    n->parents[0]->AccumGrad(dx);
  });
}

Var MeanAll(const Var& a) {
  const float inv = 1.0f / static_cast<float>(a.rows() * a.cols());
  return MulScalar(SumAll(a), inv);
}

Var RowSum(const Var& a) {
  return MakeNode(tensor::RowSum(a.value()), {a}, [](Node* n) {
    const Tensor& g = n->grad;  // rows x 1
    const int64_t rows = n->parents[0]->rows();
    const int64_t cols = n->parents[0]->cols();
    Tensor dx(rows, cols);
    ParallelRows(rows, cols, [&](int64_t r_lo, int64_t r_hi) {
      for (int64_t r = r_lo; r < r_hi; ++r) {
        const float gr = g.at(r, 0);
        float* dr = dx.row(r);
        for (int64_t c = 0; c < cols; ++c) dr[c] = gr;
      }
    });
    n->parents[0]->AccumGrad(dx);
  });
}

Var ColSum(const Var& a) {
  return MakeNode(tensor::ColSum(a.value()), {a}, [](Node* n) {
    const Tensor& g = n->grad;  // 1 x cols
    const int64_t rows = n->parents[0]->rows();
    const int64_t cols = n->parents[0]->cols();
    CHECK_EQ(g.numel(), cols);
    const float* gv = g.data();
    Tensor dx(rows, cols);
    ParallelRows(rows, cols, [&](int64_t r_lo, int64_t r_hi) {
      for (int64_t r = r_lo; r < r_hi; ++r) {
        std::copy(gv, gv + cols, dx.row(r));
      }
    });
    n->parents[0]->AccumGrad(dx);
  });
}

Var ColMean(const Var& a) {
  const float inv = 1.0f / static_cast<float>(a.rows());
  return MulScalar(ColSum(a), inv);
}

// ---------------------------------------------------------------------------
// Broadcast ops.
// ---------------------------------------------------------------------------

namespace {

Var BroadcastColOp(const Var& a, const Var& col, BinaryOp op) {
  CHECK_EQ(col.rows(), a.rows());
  CHECK_EQ(col.cols(), 1);
  Tensor out(a.rows(), a.cols());
  tensor::BroadcastCol(a.value(), col.value(), op, &out);
  return MakeNode(std::move(out), {a, col}, [op](Node* n) {
    const Tensor& g = n->grad;
    const Tensor& av = n->parents[0]->value;
    const Tensor& cv = n->parents[1]->value;
    if (n->parents[0]->requires_grad) {
      Tensor da(av.rows(), av.cols());
      ParallelRows(av.rows(), av.cols(), [&](int64_t r_lo, int64_t r_hi) {
        for (int64_t r = r_lo; r < r_hi; ++r) {
          const float c = cv.at(r, 0);
          const float* gr = g.row(r);
          float* dr = da.row(r);
          for (int64_t j = 0; j < av.cols(); ++j) {
            switch (op) {
              case BinaryOp::kAdd:
              case BinaryOp::kSub:
                dr[j] = gr[j];
                break;
              case BinaryOp::kMul:
                dr[j] = gr[j] * c;
                break;
              case BinaryOp::kDiv:
                dr[j] = gr[j] / c;
                break;
            }
          }
        }
      });
      n->parents[0]->AccumGrad(da);
    }
    if (n->parents[1]->requires_grad) {
      // Each dc row is a reduction over one input row only, so rows are
      // independent and the per-row serial accumulation order is
      // unchanged.
      Tensor dc(cv.rows(), 1);
      ParallelRows(av.rows(), av.cols(), [&](int64_t r_lo, int64_t r_hi) {
        for (int64_t r = r_lo; r < r_hi; ++r) {
          const float c = cv.at(r, 0);
          const float* gr = g.row(r);
          const float* ar = av.row(r);
          double acc = 0.0;
          for (int64_t j = 0; j < av.cols(); ++j) {
            switch (op) {
              case BinaryOp::kAdd:
                acc += gr[j];
                break;
              case BinaryOp::kSub:
                acc -= gr[j];
                break;
              case BinaryOp::kMul:
                acc += static_cast<double>(gr[j]) * ar[j];
                break;
              case BinaryOp::kDiv:
                acc += -static_cast<double>(gr[j]) * ar[j] / (c * c);
                break;
            }
          }
          dc.at(r, 0) = static_cast<float>(acc);
        }
      });
      n->parents[1]->AccumGrad(dc);
    }
  });
}

Var BroadcastRowOp(const Var& a, const Var& row, BinaryOp op) {
  CHECK_EQ(row.cols(), a.cols());
  CHECK_EQ(row.rows(), 1);
  Tensor out(a.rows(), a.cols());
  tensor::BroadcastRow(a.value(), row.value(), op, &out);
  return MakeNode(std::move(out), {a, row}, [op](Node* n) {
    const Tensor& g = n->grad;
    const Tensor& av = n->parents[0]->value;
    const float* rv = n->parents[1]->value.data();
    const int64_t cols = av.cols();
    CHECK(g.same_shape(av));
    CHECK_EQ(n->parents[1]->value.numel(), cols);
    if (n->parents[0]->requires_grad) {
      Tensor da(av.rows(), cols);
      ParallelRows(av.rows(), cols, [&](int64_t r_lo, int64_t r_hi) {
        for (int64_t r = r_lo; r < r_hi; ++r) {
          const float* gr = g.row(r);
          float* dr = da.row(r);
          for (int64_t j = 0; j < cols; ++j) {
            switch (op) {
              case BinaryOp::kAdd:
              case BinaryOp::kSub:
                dr[j] = gr[j];
                break;
              case BinaryOp::kMul:
                dr[j] = gr[j] * rv[j];
                break;
              case BinaryOp::kDiv:
                dr[j] = gr[j] / rv[j];
                break;
            }
          }
        }
      });
      n->parents[0]->AccumGrad(da);
    }
    if (n->parents[1]->requires_grad) {
      // Bias-style gradient: reduce over the batch dimension. Per-chunk
      // partials over a fixed row grid, folded in fixed tree order, keep
      // the result bitwise-identical at any thread count
      // (util/parallel.h).
      Tensor dr = util::ParallelReduceOrdered(
          util::ThreadPool::Global(), 0, av.rows(), kGradReduceGridRows,
          Tensor(1, cols),
          [&](int64_t r_lo, int64_t r_hi) {
            Tensor partial(1, cols);
            float* acc = partial.data();
            for (int64_t r = r_lo; r < r_hi; ++r) {
              const float* gr = g.row(r);
              const float* ar = av.row(r);
              for (int64_t j = 0; j < cols; ++j) {
                switch (op) {
                  case BinaryOp::kAdd:
                    acc[j] += gr[j];
                    break;
                  case BinaryOp::kSub:
                    acc[j] -= gr[j];
                    break;
                  case BinaryOp::kMul:
                    acc[j] += gr[j] * ar[j];
                    break;
                  case BinaryOp::kDiv:
                    acc[j] += -gr[j] * ar[j] / (rv[j] * rv[j]);
                    break;
                }
              }
            }
            return partial;
          },
          [](Tensor& acc, Tensor&& part) { acc.AddInPlace(part); });
      n->parents[1]->AccumGrad(dr);
    }
  });
}

}  // namespace

Var BroadcastColAdd(const Var& a, const Var& col) {
  return BroadcastColOp(a, col, BinaryOp::kAdd);
}
Var BroadcastColSub(const Var& a, const Var& col) {
  return BroadcastColOp(a, col, BinaryOp::kSub);
}
Var BroadcastColMul(const Var& a, const Var& col) {
  return BroadcastColOp(a, col, BinaryOp::kMul);
}
Var BroadcastColDiv(const Var& a, const Var& col) {
  return BroadcastColOp(a, col, BinaryOp::kDiv);
}
Var BroadcastRowAdd(const Var& a, const Var& row) {
  return BroadcastRowOp(a, row, BinaryOp::kAdd);
}
Var BroadcastRowSub(const Var& a, const Var& row) {
  return BroadcastRowOp(a, row, BinaryOp::kSub);
}
Var BroadcastRowMul(const Var& a, const Var& row) {
  return BroadcastRowOp(a, row, BinaryOp::kMul);
}
Var BroadcastRowDiv(const Var& a, const Var& row) {
  return BroadcastRowOp(a, row, BinaryOp::kDiv);
}

// ---------------------------------------------------------------------------
// Structured ops.
// ---------------------------------------------------------------------------

Var RowL2Normalize(const Var& a, float eps) {
  Tensor out = a.value();
  tensor::RowL2NormalizeInPlace(&out, eps);
  return MakeNode(std::move(out), {a}, [eps](Node* n) {
    const Tensor& x = n->parents[0]->value;
    const Tensor& y = n->value;
    const Tensor& g = n->grad;
    Tensor dx(x.rows(), x.cols());
    ParallelRows(x.rows(), x.cols(), [&](int64_t r_lo, int64_t r_hi) {
      for (int64_t r = r_lo; r < r_hi; ++r) {
        const float* xr = x.row(r);
        const float* yr = y.row(r);
        const float* gr = g.row(r);
        double norm_sq = 0.0;
        for (int64_t c = 0; c < x.cols(); ++c) {
          norm_sq += static_cast<double>(xr[c]) * xr[c];
        }
        const float norm = static_cast<float>(std::sqrt(norm_sq));
        float* dr = dx.row(r);
        if (norm <= eps) {
          for (int64_t c = 0; c < x.cols(); ++c) dr[c] = 0.0f;
          continue;
        }
        double dot = 0.0;
        for (int64_t c = 0; c < x.cols(); ++c) {
          dot += static_cast<double>(gr[c]) * yr[c];
        }
        const float inv = 1.0f / norm;
        for (int64_t c = 0; c < x.cols(); ++c) {
          dr[c] = (gr[c] - static_cast<float>(dot) * yr[c]) * inv;
        }
      }
    });
    n->parents[0]->AccumGrad(dx);
  });
}

Var ConcatRows(const std::vector<Var>& parts) {
  CHECK(!parts.empty());
  const int64_t cols = parts[0].cols();
  int64_t rows = 0;
  for (const auto& p : parts) {
    CHECK_EQ(p.cols(), cols);
    rows += p.rows();
  }
  Tensor out(rows, cols);
  int64_t offset = 0;
  for (const auto& p : parts) {
    const Tensor& v = p.value();
    std::copy(v.data(), v.data() + v.numel(), out.data() + offset * cols);
    offset += v.rows();
  }
  return MakeNode(std::move(out), parts, [](Node* n) {
    const Tensor& g = n->grad;
    const int64_t cols = g.cols();
    int64_t offset = 0;
    for (auto& parent : n->parents) {
      const int64_t r = parent->rows();
      if (parent->requires_grad) {
        Tensor dg(r, cols);
        std::copy(g.data() + offset * cols,
                  g.data() + (offset + r) * cols, dg.data());
        parent->AccumGrad(dg);
      }
      offset += r;
    }
  });
}

Var SelectColumns(const Var& a, const std::vector<int>& indices) {
  const Tensor& x = a.value();
  Tensor out(x.rows(), static_cast<int64_t>(indices.size()));
  ParallelRows(x.rows(), x.cols(), [&](int64_t r_lo, int64_t r_hi) {
    for (int64_t r = r_lo; r < r_hi; ++r) {
      const float* xr = x.row(r);
      float* outr = out.row(r);
      for (size_t j = 0; j < indices.size(); ++j) {
        DCHECK_GE(indices[j], 0);
        DCHECK_LT(indices[j], x.cols());
        outr[j] = xr[indices[j]];
      }
    }
  });
  return MakeNode(std::move(out), {a}, [idx = indices](Node* n) {
    const Tensor& g = n->grad;
    const int64_t rows = n->parents[0]->rows();
    const int64_t cols = n->parents[0]->cols();
    // The scatter stays within each row (duplicate indices accumulate
    // in serial j-order per row), so row-parallelism is
    // partition-independent.
    Tensor dx(rows, cols);
    ParallelRows(rows, cols, [&](int64_t r_lo, int64_t r_hi) {
      for (int64_t r = r_lo; r < r_hi; ++r) {
        const float* gr = g.row(r);
        float* dr = dx.row(r);
        for (size_t j = 0; j < idx.size(); ++j) {
          dr[idx[j]] += gr[j];
        }
      }
    });
    n->parents[0]->AccumGrad(dx);
  });
}

Var GatherRows(const Var& a, const std::vector<int>& indices) {
  CHECK(!indices.empty());
  const Tensor& x = a.value();
  Tensor out(static_cast<int64_t>(indices.size()), x.cols());
  ParallelRows(out.rows(), out.cols(), [&](int64_t r_lo, int64_t r_hi) {
    for (int64_t r = r_lo; r < r_hi; ++r) {
      DCHECK_GE(indices[r], 0);
      DCHECK_LT(indices[r], x.rows());
      const float* src = x.row(indices[r]);
      std::copy(src, src + x.cols(), out.row(r));
    }
  });
  return MakeNode(std::move(out), {a}, [idx = indices](Node* n) {
    const Tensor& g = n->grad;
    Tensor dx(n->parents[0]->rows(), n->parents[0]->cols());
    // Serial scatter in gather order: duplicate indices land on the
    // same destination row, so the accumulation order must not depend
    // on a thread partition.
    for (size_t j = 0; j < idx.size(); ++j) {
      float* dst = dx.row(idx[j]);
      const float* src = g.row(static_cast<int64_t>(j));
      for (int64_t c = 0; c < dx.cols(); ++c) dst[c] += src[c];
    }
    n->parents[0]->AccumGrad(dx);
  });
}

Var ApplyMask(const Var& a, const Tensor& mask) {
  CHECK_EQ(a.rows(), mask.rows());
  CHECK_EQ(a.cols(), mask.cols());
  Tensor out = a.value();
  float* op = out.data();
  const float* mp = mask.data();
  ParallelElems(out.numel(), [op, mp](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) op[i] *= mp[i];
  });
  return MakeNode(std::move(out), {a}, [mask](Node* n) {
    Tensor g = n->grad;
    float* gp = g.data();
    const float* mp = mask.data();
    ParallelElems(g.numel(), [gp, mp](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) gp[i] *= mp[i];
    });
    n->parents[0]->AccumGrad(g);
  });
}

}  // namespace autodiff
}  // namespace contratopic
