#include "embed/cooccurrence.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/kernels.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace contratopic {
namespace embed {
namespace {

// Documents are sharded over a fixed grid (a function of corpus size only,
// never thread count); each shard accumulates into its own counts matrix and
// marginal vector, and shards are merged in fixed index order. Counts are
// integer-valued, so the merged sums are exact (binary32 is exact for
// integers below 2^24) and bitwise-identical to the serial accumulation.
// kMaxShards bounds the V x V per-shard memory.
constexpr int64_t kDocsPerShard = 512;
constexpr int64_t kMaxShards = 8;

int64_t NumShards(int64_t num_docs) {
  if (num_docs <= 0) return 0;
  return std::clamp<int64_t>(num_docs / kDocsPerShard, 1, kMaxShards);
}

// Accumulates docs [lo, hi) of `corpus` into counts/marginals, scanning docs
// in index order (the same order the serial path uses).
void AccumulateDocRange(const text::BowCorpus& corpus, int64_t lo, int64_t hi,
                        bool weighted, tensor::Tensor* counts,
                        std::vector<double>* marginals) {
  for (int64_t d = lo; d < hi; ++d) {
    const auto& entries = corpus.docs()[d].entries;
    for (size_t a = 0; a < entries.size(); ++a) {
      const int i = entries[a].word_id;
      const float ci = weighted ? static_cast<float>(entries[a].count) : 1.0f;
      (*marginals)[i] += ci;
      counts->at(i, i) += ci * ci;
      for (size_t b = a + 1; b < entries.size(); ++b) {
        const int j = entries[b].word_id;
        const float w =
            weighted ? ci * static_cast<float>(entries[b].count) : 1.0f;
        counts->at(i, j) += w;
        counts->at(j, i) += w;
      }
    }
  }
}

}  // namespace

CooccurrenceCounts::CooccurrenceCounts(int vocab_size)
    : vocab_size_(vocab_size),
      counts_(vocab_size, vocab_size),
      marginals_(vocab_size, 0.0) {}

void CooccurrenceCounts::Accumulate(const text::BowCorpus& corpus,
                                    bool weighted) {
  util::TraceSpan span("cooccurrence");
  util::MetricsRegistry::Global()
      .counter("embed.cooccurrence.docs")
      .Increment(corpus.num_docs());
  CHECK_EQ(corpus.vocab_size(), vocab_size_);
  const int64_t num_docs = corpus.num_docs();
  const int64_t shards = NumShards(num_docs);
  if (shards <= 1) {
    AccumulateDocRange(corpus, 0, num_docs, weighted, &counts_, &marginals_);
  } else {
    const int64_t per_shard = (num_docs + shards - 1) / shards;
    std::vector<tensor::Tensor> shard_counts(
        shards, tensor::Tensor(vocab_size_, vocab_size_));
    std::vector<std::vector<double>> shard_marginals(
        shards, std::vector<double>(vocab_size_, 0.0));
    util::ThreadPool::Global().ParallelFor(
        0, shards,
        [&](int64_t s_lo, int64_t s_hi) {
          for (int64_t s = s_lo; s < s_hi; ++s) {
            const int64_t lo = s * per_shard;
            const int64_t hi = std::min(num_docs, lo + per_shard);
            AccumulateDocRange(corpus, lo, hi, weighted, &shard_counts[s],
                               &shard_marginals[s]);
          }
        },
        /*grain=*/1);
    // Merge shards in fixed index order.
    for (int64_t s = 0; s < shards; ++s) {
      counts_.AddInPlace(shard_counts[s]);
      for (int i = 0; i < vocab_size_; ++i) {
        marginals_[i] += shard_marginals[s][i];
      }
    }
  }
  num_docs_ += num_docs;
}

void CooccurrenceCounts::AddPresence(const text::BowCorpus& corpus) {
  Accumulate(corpus, /*weighted=*/false);
}

void CooccurrenceCounts::AddWeighted(const text::BowCorpus& corpus) {
  Accumulate(corpus, /*weighted=*/true);
}

void CooccurrenceCounts::Scale(double factor) {
  CHECK_GT(factor, 0.0);
  CHECK_LE(factor, 1.0);
  counts_.Scale(static_cast<float>(factor));
  for (auto& m : marginals_) m *= factor;
  num_docs_ = static_cast<int64_t>(num_docs_ * factor);
  if (num_docs_ < 1) num_docs_ = 1;
}

tensor::Tensor PpmiMatrix(const CooccurrenceCounts& counts, double alpha) {
  const int v = counts.vocab_size();
  double total = 0.0;
  for (int i = 0; i < v; ++i) total += counts.marginal(i);
  CHECK_GT(total, 0.0);

  tensor::Tensor ppmi(v, v);
  // Rows are independent; each row's math is identical to the serial loop.
  tensor::ParallelRows(v, v, [&](int64_t r_lo, int64_t r_hi) {
    for (int64_t i = r_lo; i < r_hi; ++i) {
      const double pi = counts.marginal(static_cast<int>(i)) / total;
      if (pi <= 0.0) continue;
      for (int j = 0; j < v; ++j) {
        const double pj = counts.marginal(j) / total;
        if (pj <= 0.0) continue;
        const double pij =
            (counts.pair(static_cast<int>(i), j) + alpha) / total;
        const double pmi = std::log(pij / (pi * pj));
        if (pmi > 0.0) ppmi.at(i, j) = static_cast<float>(pmi);
      }
    }
  });
  return ppmi;
}

}  // namespace embed
}  // namespace contratopic
