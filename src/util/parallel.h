#ifndef CONTRATOPIC_UTIL_PARALLEL_H_
#define CONTRATOPIC_UTIL_PARALLEL_H_

// Deterministic parallel reduction on top of util::ThreadPool.
//
// Floating-point addition is not associative, so a reduction whose
// partial-sum boundaries depend on the number of worker threads produces
// different bits at different --threads settings. The helpers here make the
// boundaries a function of the *range only*:
//
//   1. The range is cut into a fixed grid of chunks of `grain` items each
//      (FixedGridChunks; independent of pool size).
//   2. One partial accumulator ("per-thread gradient buffer" in the training
//      engine) is produced per chunk, in parallel, by whichever worker picks
//      the chunk up.
//   3. Partials are combined pairwise in a fixed tree order
//      ((0+1)+(2+3))+... on the calling thread.
//
// Steps 1 and 3 never look at num_threads(), so num_threads=1 and
// num_threads=N yield bitwise-identical results; threads only change which
// worker computes each chunk, never what is computed.

#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace contratopic {
namespace util {

// Number of chunks in the fixed reduction grid: ceil(range / grain).
// Depends only on the range and grain -- NEVER on the thread count (contrast
// with ThreadPool::NumChunks, which is for partition-independent bodies).
inline int64_t FixedGridChunks(int64_t range, int64_t grain) {
  CHECK_GT(grain, 0);
  if (range <= 0) return 0;
  return (range + grain - 1) / grain;
}

// Deterministic map-reduce over [begin, end).
//   chunk_fn(lo, hi) -> T   computes the partial for one grid chunk;
//   combine(&acc, part)     folds a partial into an accumulator (called in
//                           fixed tree order, single-threaded).
// Returns `identity` for an empty range. T must be movable.
template <typename T, typename ChunkFn, typename CombineFn>
T ParallelReduceOrdered(ThreadPool& pool, int64_t begin, int64_t end,
                        int64_t grain, T identity, const ChunkFn& chunk_fn,
                        const CombineFn& combine) {
  const int64_t range = end - begin;
  const int64_t chunks = FixedGridChunks(range, grain);
  if (chunks == 0) return identity;
  if (chunks == 1) {
    T part = chunk_fn(begin, end);
    combine(identity, std::move(part));
    return identity;
  }
  std::vector<T> partials(static_cast<size_t>(chunks));
  pool.ParallelFor(
      0, chunks,
      [&](int64_t c_lo, int64_t c_hi) {
        for (int64_t c = c_lo; c < c_hi; ++c) {
          const int64_t lo = begin + c * grain;
          const int64_t hi = std::min<int64_t>(end, lo + grain);
          partials[static_cast<size_t>(c)] = chunk_fn(lo, hi);
        }
      },
      /*grain=*/1);
  // Fixed pairwise tree reduction: level by level, left to right.
  int64_t count = chunks;
  while (count > 1) {
    const int64_t half = count / 2;
    for (int64_t i = 0; i < half; ++i) {
      combine(partials[static_cast<size_t>(2 * i)],
              std::move(partials[static_cast<size_t>(2 * i + 1)]));
      if (2 * i != i) {
        partials[static_cast<size_t>(i)] =
            std::move(partials[static_cast<size_t>(2 * i)]);
      }
    }
    if (count % 2 == 1) {
      partials[static_cast<size_t>(half)] =
          std::move(partials[static_cast<size_t>(count - 1)]);
      count = half + 1;
    } else {
      count = half;
    }
  }
  combine(identity, std::move(partials[0]));
  return identity;
}

}  // namespace util
}  // namespace contratopic

#endif  // CONTRATOPIC_UTIL_PARALLEL_H_
