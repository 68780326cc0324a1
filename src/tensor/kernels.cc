#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>

#include "tensor/backend.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace contratopic {
namespace tensor {

namespace {
// Minimum cells of work per chunk for cheap per-row/per-element bodies;
// below this the dispatch overhead dominates.
constexpr int64_t kCellsPerChunk = 1 << 14;
// Fixed reduction grid for ColSum: rows per partial accumulator. Part of
// the determinism contract -- must not depend on the thread count.
constexpr int64_t kColSumGridRows = 256;
// Columns of C per MatMul panel: the matching B^T panel (kMatMulColBlock
// rows of k floats) stays hot in L2 while a chunk's A rows stream by.
constexpr int64_t kMatMulColBlock = 64;
}  // namespace

void ParallelElems(int64_t n,
                   const std::function<void(int64_t, int64_t)>& body) {
  util::ThreadPool::Global().ParallelFor(0, n, body, kCellsPerChunk);
}

void ParallelRows(int64_t rows, int64_t cols,
                  const std::function<void(int64_t, int64_t)>& body) {
  const int64_t grain =
      std::max<int64_t>(1, kCellsPerChunk / std::max<int64_t>(1, cols));
  util::ThreadPool::Global().ParallelFor(0, rows, body, grain);
}

namespace {

// Core: C[m,n] (+)= alpha * A[m,k] * Bt[n,k]^T where Bt stores B transposed
// -- the packed panel layout: both operands are read along contiguous rows,
// and a kMatMulColBlock-row slice of Bt is reused across every A row of a
// chunk before moving to the next panel. Each C cell is one canonical-order
// dot product (backend.h), so the result is bitwise identical at any SIMD
// width and any thread count.
void MatMulRowMajorTransB(const float* a, const float* bt, float* c,
                          int64_t m, int64_t n, int64_t k, float alpha,
                          float beta) {
  const KernelTable& kt = ActiveKernels();
  auto body = [&](int64_t row_begin, int64_t row_end) {
    for (int64_t jb = 0; jb < n; jb += kMatMulColBlock) {
      const int64_t j_end = std::min<int64_t>(n, jb + kMatMulColBlock);
      for (int64_t i = row_begin; i < row_end; ++i) {
        const float* a_row = a + i * k;
        float* c_row = c + i * n;
        int64_t j = jb;
        for (; j + 4 <= j_end; j += 4) {
          float dots[4];
          kt.dot4(a_row, bt + j * k, bt + (j + 1) * k, bt + (j + 2) * k,
                  bt + (j + 3) * k, k, dots);
          c_row[j] = beta * c_row[j] + alpha * dots[0];
          c_row[j + 1] = beta * c_row[j + 1] + alpha * dots[1];
          c_row[j + 2] = beta * c_row[j + 2] + alpha * dots[2];
          c_row[j + 3] = beta * c_row[j + 3] + alpha * dots[3];
        }
        for (; j < j_end; ++j) {
          c_row[j] = beta * c_row[j] + alpha * kt.dot(a_row, bt + j * k, k);
        }
      }
    }
  };
  const int64_t flops = m * n * k;
  if (flops > (1 << 22)) {
    // Large product: split output rows across the pool. Each output row is
    // n*k flops of independent work, so grain=1 row (the chunk count is
    // still bounded by the pool policy, ThreadPool::NumChunks).
    util::ThreadPool::Global().ParallelFor(0, m, body, /*grain=*/1);
  } else {
    body(0, m);
  }
}

}  // namespace

void MatMul(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
            Tensor* c, float alpha, float beta) {
  const int64_t m = trans_a ? a.cols() : a.rows();
  const int64_t k = trans_a ? a.rows() : a.cols();
  const int64_t kb = trans_b ? b.cols() : b.rows();
  const int64_t n = trans_b ? b.rows() : b.cols();
  CHECK_EQ(k, kb) << "MatMul inner dims: " << a.ShapeString()
                  << (trans_a ? "^T" : "") << " @ " << b.ShapeString()
                  << (trans_b ? "^T" : "");
  CHECK_EQ(c->rows(), m);
  CHECK_EQ(c->cols(), n);

  // Bring both operands into "A row-major, B transposed" layout (the B^T
  // copy is the packed panel: every dot reads both operands contiguously).
  Tensor a_copy;
  const float* a_ptr = a.data();
  if (trans_a) {
    a_copy = Transposed(a);
    a_ptr = a_copy.data();
  }
  Tensor bt_copy;
  const float* bt_ptr = b.data();
  if (!trans_b) {
    bt_copy = Transposed(b);
    bt_ptr = bt_copy.data();
  }
  MatMulRowMajorTransB(a_ptr, bt_ptr, c->data(), m, n, k, alpha, beta);
}

Tensor MatMulNew(const Tensor& a, bool trans_a, const Tensor& b,
                 bool trans_b) {
  const int64_t m = trans_a ? a.cols() : a.rows();
  const int64_t n = trans_b ? b.rows() : b.cols();
  Tensor c(m, n);
  MatMul(a, trans_a, b, trans_b, &c);
  return c;
}

void SoftmaxRowsInPlace(Tensor* x) {
  const KernelTable& kt = ActiveKernels();
  ParallelRows(x->rows(), x->cols(), [x, &kt](int64_t r_lo, int64_t r_hi) {
    for (int64_t r = r_lo; r < r_hi; ++r) {
      kt.softmax_row(x->row(r), x->cols());
    }
  });
}

Tensor SoftmaxRows(const Tensor& x) {
  Tensor out = x;
  SoftmaxRowsInPlace(&out);
  return out;
}

void LogSoftmaxRowsInPlace(Tensor* x) {
  const KernelTable& kt = ActiveKernels();
  ParallelRows(x->rows(), x->cols(), [x, &kt](int64_t r_lo, int64_t r_hi) {
    for (int64_t r = r_lo; r < r_hi; ++r) {
      kt.log_softmax_row(x->row(r), x->cols());
    }
  });
}

void LogSumExpRows(const Tensor& x, const Tensor* mask, Tensor* out) {
  CHECK_EQ(out->rows(), x.rows());
  CHECK_EQ(out->cols(), 1);
  if (mask != nullptr) {
    CHECK(mask->same_shape(x));
  }
  const KernelTable& kt = ActiveKernels();
  ParallelRows(x.rows(), x.cols(),
               [&x, mask, out, &kt](int64_t r_lo, int64_t r_hi) {
                 for (int64_t r = r_lo; r < r_hi; ++r) {
                   const float* m = mask != nullptr ? mask->row(r) : nullptr;
                   out->at(r, 0) = kt.logsumexp_row(x.row(r), m, x.cols());
                 }
               });
}

Tensor Transposed(const Tensor& x) {
  const int64_t rows = x.rows();
  const int64_t cols = x.cols();
  Tensor out(cols, rows);
  const float* src = x.data();
  float* dst = out.data();
  constexpr int64_t kBlock = 32;
  ParallelRows(rows, cols, [=](int64_t r_lo, int64_t r_hi) {
    for (int64_t rb = r_lo; rb < r_hi; rb += kBlock) {
      const int64_t r_end = std::min(r_hi, rb + kBlock);
      for (int64_t cb = 0; cb < cols; cb += kBlock) {
        const int64_t c_end = std::min(cols, cb + kBlock);
        for (int64_t r = rb; r < r_end; ++r) {
          const float* src_row = src + r * cols;
          for (int64_t c = cb; c < c_end; ++c) {
            dst[c * rows + r] = src_row[c];
          }
        }
      }
    }
  });
  return out;
}

Tensor GatherSquare(const Tensor& x, const std::vector<int>& indices) {
  const int64_t n = static_cast<int64_t>(indices.size());
  for (const int i : indices) {
    CHECK_GE(i, 0);
    CHECK_LT(i, x.rows());
    CHECK_LT(i, x.cols());
  }
  Tensor out(n, n);
  ParallelRows(n, n, [&](int64_t a_lo, int64_t a_hi) {
    for (int64_t a = a_lo; a < a_hi; ++a) {
      const float* src = x.row(indices[a]);
      float* dst = out.row(a);
      for (int64_t b = 0; b < n; ++b) dst[b] = src[indices[b]];
    }
  });
  return out;
}

Tensor RowSum(const Tensor& x) {
  Tensor out(x.rows(), 1);
  const KernelTable& kt = ActiveKernels();
  ParallelRows(x.rows(), x.cols(),
               [&x, &out, &kt](int64_t r_lo, int64_t r_hi) {
                 for (int64_t r = r_lo; r < r_hi; ++r) {
                   out.at(r, 0) =
                       static_cast<float>(kt.row_sum(x.row(r), x.cols()));
                 }
               });
  return out;
}

Tensor ColSum(const Tensor& x) {
  // Reduction across the row (batch) dimension: per-chunk partial buffers
  // over a fixed row grid, folded in fixed tree order (bitwise identical at
  // any thread count; see util/parallel.h). The per-row accumulation is an
  // elementwise add over columns, vectorized through the backend table.
  const KernelTable& kt = ActiveKernels();
  return util::ParallelReduceOrdered(
      util::ThreadPool::Global(), 0, x.rows(), kColSumGridRows,
      Tensor(1, x.cols()),
      [&x, &kt](int64_t r_lo, int64_t r_hi) {
        Tensor partial(1, x.cols());
        float* acc = partial.data();
        for (int64_t r = r_lo; r < r_hi; ++r) {
          kt.add(acc, x.row(r), x.cols());
        }
        return partial;
      },
      [](Tensor& acc, Tensor&& part) { acc.AddInPlace(part); });
}

Tensor ColMean(const Tensor& x) {
  CHECK_GT(x.rows(), 0);
  Tensor out = ColSum(x);
  out.Scale(1.0f / static_cast<float>(x.rows()));
  return out;
}

void BroadcastCol(const Tensor& a, const Tensor& col, BinaryOp op,
                  Tensor* out) {
  CHECK_EQ(col.rows(), a.rows());
  CHECK_EQ(col.cols(), 1);
  CHECK(out->same_shape(a));
  const KernelTable& kt = ActiveKernels();
  ParallelRows(a.rows(), a.cols(), [&](int64_t r_lo, int64_t r_hi) {
    for (int64_t r = r_lo; r < r_hi; ++r) {
      kt.binary_scalar(op, a.row(r), col.at(r, 0), out->row(r), a.cols());
    }
  });
}

void BroadcastRow(const Tensor& a, const Tensor& row, BinaryOp op,
                  Tensor* out) {
  CHECK_EQ(row.cols(), a.cols());
  CHECK_EQ(row.rows(), 1);
  CHECK(out->same_shape(a));
  const float* b = row.data();
  const KernelTable& kt = ActiveKernels();
  ParallelRows(a.rows(), a.cols(), [&, b](int64_t r_lo, int64_t r_hi) {
    for (int64_t r = r_lo; r < r_hi; ++r) {
      kt.binary(op, a.row(r), b, out->row(r), a.cols());
    }
  });
}

void RowL2NormalizeInPlace(Tensor* x, float eps) {
  // The norm is read from the row before it is scaled, so normalizing a
  // copy in place produces the same bits as RowL2Normalized.
  const KernelTable& kt = ActiveKernels();
  ParallelRows(x->rows(), x->cols(),
               [x, eps, &kt](int64_t r_lo, int64_t r_hi) {
                 for (int64_t r = r_lo; r < r_hi; ++r) {
                   const float norm = static_cast<float>(
                       std::sqrt(kt.row_sumsq(x->row(r), x->cols())));
                   if (norm <= eps) continue;
                   kt.scale(x->row(r), x->cols(), 1.0f / norm);
                 }
               });
}

Tensor RowL2Normalized(const Tensor& x, float eps) {
  Tensor out = x;
  RowL2NormalizeInPlace(&out, eps);
  return out;
}

Tensor PairwiseSquaredDistances(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.cols(), b.cols());
  Tensor cross = MatMulNew(a, false, b, true);  // m x n
  Tensor a_sq = RowSum([&] {
    Tensor t = a;
    t.Apply([](float v) { return v * v; });
    return t;
  }());
  Tensor b_sq = RowSum([&] {
    Tensor t = b;
    t.Apply([](float v) { return v * v; });
    return t;
  }());
  Tensor out(a.rows(), b.rows());
  ParallelRows(a.rows(), b.rows(), [&](int64_t i_lo, int64_t i_hi) {
    for (int64_t i = i_lo; i < i_hi; ++i) {
      for (int64_t j = 0; j < b.rows(); ++j) {
        const float d = a_sq.at(i, 0) + b_sq.at(j, 0) - 2.0f * cross.at(i, j);
        out.at(i, j) = std::max(0.0f, d);
      }
    }
  });
  return out;
}

Tensor PairwiseCosine(const Tensor& a, const Tensor& b) {
  return MatMulNew(RowL2Normalized(a), false, RowL2Normalized(b), true);
}

}  // namespace tensor
}  // namespace contratopic
