#include "eval/npmi.h"

#include <cmath>

#include "embed/cooccurrence.h"
#include "tensor/kernels.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace contratopic {
namespace eval {

NpmiMatrix NpmiMatrix::Compute(const text::BowCorpus& corpus) {
  embed::CooccurrenceCounts counts(corpus.vocab_size());
  counts.AddPresence(corpus);
  return FromCounts(counts);
}

NpmiMatrix NpmiMatrix::FromCounts(const embed::CooccurrenceCounts& counts) {
  const double n_docs = static_cast<double>(counts.num_docs());
  CHECK_GT(n_docs, 0.0);

  util::TraceSpan span("npmi_matrix");
  const int v = counts.vocab_size();
  util::MetricsRegistry::Global()
      .counter("eval.npmi.cells")
      .Increment(static_cast<int64_t>(v) * v);
  tensor::Tensor npmi(v, v);
  // Each row is computed independently (the mirror cell (j, i) is recomputed
  // rather than scattered across rows, so writes stay disjoint under
  // row-parallelism); the per-cell math is symmetric in (i, j), so the
  // matrix stays exactly symmetric.
  tensor::ParallelRows(v, v, [&](int64_t r_lo, int64_t r_hi) {
    for (int64_t row = r_lo; row < r_hi; ++row) {
      const int i = static_cast<int>(row);
      const double pi = counts.marginal(i) / n_docs;
      npmi.at(i, i) = 1.0f;
      for (int j = 0; j < v; ++j) {
        if (j == i) continue;
        const double pj = counts.marginal(j) / n_docs;
        const double cij = counts.pair(i, j);
        float value = -1.0f;
        if (cij > 0.0 && pi > 0.0 && pj > 0.0) {
          const double pij = cij / n_docs;
          const double pmi = std::log(pij / (pi * pj));
          const double denom = -std::log(pij);
          value = denom > 1e-12 ? static_cast<float>(pmi / denom) : 1.0f;
        }
        npmi.at(i, j) = value;
      }
    }
  });
  return NpmiMatrix(std::move(npmi));
}

tensor::Tensor NpmiMatrix::SubMatrix(const std::vector<int>& indices) const {
  return tensor::GatherSquare(matrix_, indices);
}

double NpmiMatrix::MeanPairwise(const std::vector<int>& word_ids) const {
  const int n = static_cast<int>(word_ids.size());
  if (n < 2) return 0.0;
  double total = 0.0;
  int pairs = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      total += value(word_ids[a], word_ids[b]);
      ++pairs;
    }
  }
  return total / pairs;
}

}  // namespace eval
}  // namespace contratopic
