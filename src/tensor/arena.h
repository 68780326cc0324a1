#ifndef CONTRATOPIC_TENSOR_ARENA_H_
#define CONTRATOPIC_TENSOR_ARENA_H_

// Pooled training arena (DESIGN.md §14).
//
// Every autodiff op output, gradient and backward temporary is a fresh
// Tensor. Left to the heap, a training step would allocate hundreds of
// buffers. Instead NeuralTopicModel::RunTrainingLoop installs a thread-local
// BufferPool for the whole run: Tensor buffer acquisition and release route
// through the installed pool, so after the first step every step-shaped
// buffer is recycled and the steady-state heap-allocation count on the
// training hot path drops to ~zero. Backward's early release of
// intermediate gradients (tensor/autodiff.h) keeps the working set small.
//
// The pool is deliberately single-threaded (no locks): it is installed only
// on the thread that owns the training loop. Pool-thread tensors that are
// destroyed on a worker thread fall back to plain deallocation; worker
// tensors destroyed on the pool thread are adopted. Neither direction
// affects values -- the pool only changes where bytes live, never what is
// computed (buffers are re-zeroed or fully overwritten on acquisition,
// exactly like a fresh std::vector).
//
// Buffers are bucketed by size class: small capacities round up to
// kBufferAlignFloats floats (64 bytes) so equal-shape reuse is exact;
// capacities above kBufferClassLinearLimitFloats round up to the next
// power of two so buffers whose sizes drift step to step (the contrastive
// term's K x |candidate-words| beta gather and |candidate-words|^2 kernel
// gather track the evolving beta) still share a bucket instead of minting
// a fresh size class — and a fresh heap allocation — every step.
// Worst-case internal waste for those buffers is 2x, bounded overall by
// the retention cap.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace contratopic {
namespace tensor {

// Size-class granularity: capacities are rounded up to multiples of 16
// floats (one cache line) on acquisition...
constexpr size_t kBufferAlignFloats = 16;
// ...until this limit (4 KB), past which classes double (see file
// comment: drifting shapes must share buckets).
constexpr size_t kBufferClassLinearLimitFloats = 1024;

inline size_t RoundUpToAlign(size_t n) {
  return (n + kBufferAlignFloats - 1) / kBufferAlignFloats *
         kBufferAlignFloats;
}

// The capacity actually reserved for a request of n floats (round up).
inline size_t BufferSizeClass(size_t n) {
  if (n <= kBufferClassLinearLimitFloats) return RoundUpToAlign(n);
  size_t c = kBufferClassLinearLimitFloats;
  while (c < n) c *= 2;
  return c;
}

// Process-global tensor-buffer allocation counters (relaxed atomics).
// heap_allocs counts buffers obtained from the heap; pool_hits counts
// buffers recycled from an installed pool. bench_parallel_training gates on
// steady-state pool hits being >= 10x heap allocs per training step.
struct AllocStats {
  uint64_t heap_allocs = 0;
  uint64_t pool_hits = 0;
};
AllocStats GlobalAllocStats();

class BufferPool {
 public:
  // Stop retaining free buffers past this many bytes (excess is freed).
  static constexpr size_t kDefaultMaxRetainedBytes = size_t{256} << 20;

  explicit BufferPool(size_t max_retained_bytes = kDefaultMaxRetainedBytes)
      : max_retained_bytes_(max_retained_bytes) {}
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // A zero-filled buffer of size n (capacity rounded to the size class) --
  // bitwise-identical semantics to std::vector<float>(n, 0.0f).
  std::vector<float> AcquireZero(size_t n);
  // A buffer holding a copy of src[0, n) -- identical to copying a vector.
  std::vector<float> AcquireCopy(const float* src, size_t n);
  // Returns a buffer to the pool (or frees it past the retention cap).
  void Release(std::vector<float>&& buf);

  // Bytes currently acquired-but-not-released ("live arena") and the peak
  // over the pool's lifetime. Foreign releases clamp at zero.
  size_t outstanding_bytes() const { return outstanding_bytes_; }
  size_t peak_outstanding_bytes() const { return peak_outstanding_bytes_; }
  // Bytes sitting free in the pool.
  size_t retained_bytes() const { return retained_bytes_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  std::vector<float> TakeOrAllocate(size_t n);

  // Free lists keyed by size class (rounded-down capacity in floats).
  std::unordered_map<size_t, std::vector<std::vector<float>>> buckets_;
  size_t max_retained_bytes_;
  size_t retained_bytes_ = 0;
  size_t outstanding_bytes_ = 0;
  size_t peak_outstanding_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Installs `pool` as this thread's buffer pool and returns the previous one
// (restore it when done; the training loop does this RAII-style). Passing
// null uninstalls.
BufferPool* InstallThreadBufferPool(BufferPool* pool);
BufferPool* ThreadBufferPool();

// Owns a BufferPool and keeps it installed on this thread for its lifetime,
// restoring the previously installed pool (if any) on destruction.
class ScopedBufferPool {
 public:
  ScopedBufferPool() : prev_(InstallThreadBufferPool(&pool_)) {}
  ~ScopedBufferPool() { InstallThreadBufferPool(prev_); }
  ScopedBufferPool(const ScopedBufferPool&) = delete;
  ScopedBufferPool& operator=(const ScopedBufferPool&) = delete;

 private:
  BufferPool pool_;
  BufferPool* prev_;
};

namespace detail {
// Tensor storage hooks (tensor.cc). Route through the installed pool when
// present, otherwise through the heap; both paths bump GlobalAllocStats.
std::vector<float> AcquireBufferZero(size_t n);
std::vector<float> AcquireBufferCopy(const float* src, size_t n);
void ReleaseBuffer(std::vector<float>&& buf);
}  // namespace detail

}  // namespace tensor
}  // namespace contratopic

#endif  // CONTRATOPIC_TENSOR_ARENA_H_
