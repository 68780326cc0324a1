#ifndef CONTRATOPIC_TENSOR_QUANT_H_
#define CONTRATOPIC_TENSOR_QUANT_H_

// Mixed-precision serving tier (DESIGN.md §15, ROADMAP item 4).
//
// Training keeps the fp32 bitwise contract of backend.h untouched.
// Serving may trade bits for throughput under an explicit *tolerance*
// contract instead: eval-mode encoder matmuls (nn::Linear::Forward) can
// run against bf16-storage/fp32-accumulate or int8 (per-row scale,
// symmetric) packed weights, and serve::Checkpoint can store its tensors
// in either reduced format so a quantized model loads 2-4x smaller.
//
// The contract has two halves:
//   * Within a precision, results are still bitwise identical across
//     kernel backends and thread counts -- the quantized kernels live in
//     the backend dispatch tables and follow the same canonical-order
//     rules (backend.h).
//   * Across precisions, ranked top-words are invariant (serving answers
//     TopicTopWords from the checkpoint's fp32-derived id lists) and
//     theta is bounded by the documented tolerance
//     (tests/precision_differential_test.cc pins both).
//
// Precision selection mirrors the kernel-backend machinery:
// CT_SERVE_PRECISION={fp32,bf16,int8} picks the startup precision
// (default fp32), SetServePrecision/ScopedServePrecision switch at
// runtime. The mode only affects eval-mode (training() == false) forward
// passes; training math never consults it.

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace contratopic {
namespace tensor {

enum class ServePrecision { kFp32, kBf16, kInt8 };

// The precision eval-mode Linear forwards run at. Resolved once at
// startup from CT_SERVE_PRECISION (default fp32), then overridable.
ServePrecision ActiveServePrecision();

// Makes `p` the active serving precision. Like SetKernelBackend, this is
// a process-global switch: not thread-safe against in-flight inference;
// call between queries or pass InferenceEngine::Options::precision so the
// engine scopes it around its own model calls.
void SetServePrecision(ServePrecision p);

const char* ServePrecisionName(ServePrecision p);

// Parses "fp32"/"bf16"/"int8". Returns false on an unknown name.
bool ParseServePrecisionName(const std::string& name, ServePrecision* p);

// RAII precision switch for tests, benches, and the serving engine.
class ScopedServePrecision {
 public:
  explicit ScopedServePrecision(ServePrecision p);
  ~ScopedServePrecision();
  ScopedServePrecision(const ScopedServePrecision&) = delete;
  ScopedServePrecision& operator=(const ScopedServePrecision&) = delete;

 private:
  ServePrecision prev_;
};

// Row-major bf16 matrix (fp32 with the low 16 mantissa bits rounded
// away). Decoding is exact, so bf16 round-trips are idempotent.
struct Bf16Matrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<uint16_t> data;  // rows * cols
};

// Row-major int8 matrix with per-row symmetric scales: row r of the
// original matrix is approximately data[r, :] * scales[r], where
// scales[r] = absmax(row r) / 127. An all-zero (or empty) row has scale
// 0 and all-zero codes.
struct Int8Matrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int8_t> data;  // rows * cols
  std::vector<float> scales;  // rows
};

// fp32 <-> bf16 (encode rounds to nearest even; decode is exact).
Bf16Matrix Bf16FromTensor(const Tensor& t);
Tensor TensorFromBf16(const Bf16Matrix& m);

// fp32 <-> int8 per-row symmetric. Rows with non-finite values are not
// meaningfully quantizable; the result is still deterministic.
Int8Matrix Int8FromTensor(const Tensor& t);
Tensor TensorFromInt8(const Int8Matrix& m);

// Serving GEMMs against a packed *transposed* weight (wt.rows == output
// features, wt.cols == input features == x.cols):
//
//   out[r, o] = dot(x.row(r), wt.row(o)) + (bias != nullptr ? bias[o] : 0)
//
// The bf16 form accumulates in fp32 through the canonical 8-lane tree;
// the int8 form quantizes each activation row symmetrically, takes exact
// integer dots, and dequantizes as
//   (float)((double)acc * ((double)x_scale * (double)w_scale)) + bias[o]
// in that fixed expression order. Both parallelize over rows of x with
// disjoint writes, so results are bitwise identical at any thread count
// and on every kernel backend.
Tensor MatMulBf16T(const Tensor& x, const Bf16Matrix& wt, const float* bias);
Tensor MatMulInt8T(const Tensor& x, const Int8Matrix& wt, const float* bias);

// True when the serving tier stores/computes this shape in reduced
// precision. Small tensors (biases, batch-norm vectors, tiny heads) stay
// fp32: they are cheap, and quantizing running statistics would wreck
// the theta tolerance for no memory win.
bool QuantizableShape(int64_t rows, int64_t cols);

}  // namespace tensor
}  // namespace contratopic

#endif  // CONTRATOPIC_TENSOR_QUANT_H_
