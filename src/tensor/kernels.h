#ifndef CONTRATOPIC_TENSOR_KERNELS_H_
#define CONTRATOPIC_TENSOR_KERNELS_H_

// Non-differentiable compute kernels on Tensors. The autodiff layer
// (tensor/autodiff.h) composes these into differentiable ops; the Gibbs
// sampler, KMeans, and the evaluators call them directly.
//
// Every kernel here is deterministic at any thread count: parallel loops
// either write disjoint, partition-independent output slots (per-row /
// per-element work) or reduce over a fixed chunk grid in fixed order
// (ColSum; see util/parallel.h).
//
// The inner span-level math dispatches through the runtime-selected SIMD
// backend (tensor/backend.h). All backends are bitwise identical, so this
// is purely a speed knob: results do not depend on CT_KERNEL_BACKEND.

#include <functional>
#include <vector>

#include "tensor/backend.h"
#include "tensor/tensor.h"

namespace contratopic {
namespace tensor {

// Parallel-loop helpers shared by the kernels and the autodiff backward
// pass. Bodies receive [lo, hi) sub-ranges, must not throw, and must produce
// output that does not depend on how the range was partitioned.
//
// Runs body over element range [0, n) on the global pool (grain sized for
// cheap elementwise bodies).
void ParallelElems(int64_t n,
                   const std::function<void(int64_t, int64_t)>& body);
// Runs body over row range [0, rows) of a (rows x cols) matrix; the grain
// shrinks as rows get wider so that each chunk carries comparable work.
void ParallelRows(int64_t rows, int64_t cols,
                  const std::function<void(int64_t, int64_t)>& body);

// C = alpha * op(A) @ op(B) + beta * C, where op transposes when the flag is
// set. Shapes are validated. Uses a cache-blocked inner loop and, for large
// products, the global thread pool.
void MatMul(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
            Tensor* c, float alpha = 1.0f, float beta = 0.0f);

// Convenience: returns op(A) @ op(B).
Tensor MatMulNew(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b);

// Row-wise softmax; numerically stabilized (max subtraction).
void SoftmaxRowsInPlace(Tensor* x);
Tensor SoftmaxRows(const Tensor& x);

// Row-wise log-softmax.
void LogSoftmaxRowsInPlace(Tensor* x);

// out[r] = log(sum_c mask[r,c] * exp(x[r,c])); mask may be null (all ones).
// Rows whose mask is entirely zero produce -inf surrogate (-1e30).
void LogSumExpRows(const Tensor& x, const Tensor* mask, Tensor* out);

// Returns transposed copy.
Tensor Transposed(const Tensor& x);

// out[a,b] = x[indices[a], indices[b]]: the square sub-block of a word-word
// kernel (NPMI, embedding cosine) at the given words. Every index is
// CHECKed against x's shape once, up front.
Tensor GatherSquare(const Tensor& x, const std::vector<int>& indices);

// Row-wise reductions.
Tensor RowSum(const Tensor& x);   // -> (rows x 1)
Tensor ColSum(const Tensor& x);   // -> (1 x cols)
Tensor ColMean(const Tensor& x);  // -> (1 x cols)

// out[r,c] = a[r,c] (op) b[r,0]  /  b[0,c], used by broadcast autodiff ops.
// (BinaryOp lives in tensor/backend.h, shared with the kernel tables.)
void BroadcastCol(const Tensor& a, const Tensor& col, BinaryOp op, Tensor* out);
void BroadcastRow(const Tensor& a, const Tensor& row, BinaryOp op, Tensor* out);

// Normalizes each row to unit L2 norm (zero rows are left as zero).
Tensor RowL2Normalized(const Tensor& x, float eps = 1e-12f);
// In-place variant (bitwise-identical to RowL2Normalized on a copy).
void RowL2NormalizeInPlace(Tensor* x, float eps = 1e-12f);

// Pairwise squared Euclidean distances between rows of a (m x d) and rows
// of b (n x d) -> (m x n). Clamped at zero.
Tensor PairwiseSquaredDistances(const Tensor& a, const Tensor& b);

// Cosine similarity between rows of a and rows of b -> (m x n).
Tensor PairwiseCosine(const Tensor& a, const Tensor& b);

}  // namespace tensor
}  // namespace contratopic

#endif  // CONTRATOPIC_TENSOR_KERNELS_H_
