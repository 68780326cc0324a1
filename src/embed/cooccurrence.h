#ifndef CONTRATOPIC_EMBED_COOCCURRENCE_H_
#define CONTRATOPIC_EMBED_COOCCURRENCE_H_

// Word co-occurrence counting over bag-of-words corpora. Two flavours are
// provided:
//  * document-level *presence* counts (docs containing both words) -- the
//    statistic NPMI coherence is computed from, and
//  * count-weighted co-occurrence (sum over docs of c_i * c_j) -- the
//    statistic PPMI embeddings are factorized from.

#include "tensor/tensor.h"
#include "text/corpus.h"

namespace contratopic {
namespace embed {

// Dense symmetric co-occurrence accumulator.
class CooccurrenceCounts {
 public:
  explicit CooccurrenceCounts(int vocab_size);

  // Adds a corpus worth of counts. Large corpora are sharded over the global
  // thread pool (fixed doc grid, shards merged in fixed order); counts are
  // integer-valued so the result is bitwise-identical at any thread count.
  void AddPresence(const text::BowCorpus& corpus);
  void AddWeighted(const text::BowCorpus& corpus);

  // Exponential forgetting for streaming settings: multiplies every count
  // (including the effective document count) by `factor` in (0, 1].
  void Scale(double factor);

  int vocab_size() const { return vocab_size_; }
  int64_t num_docs() const { return num_docs_; }

  // Co-occurrence of word pair (i, j); symmetric.
  double pair(int i, int j) const { return counts_.at(i, j); }
  // Marginal count of word i (diagonal).
  double marginal(int i) const { return marginals_[i]; }

  const tensor::Tensor& matrix() const { return counts_; }

 private:
  // Shared sharded accumulation path behind AddPresence / AddWeighted.
  void Accumulate(const text::BowCorpus& corpus, bool weighted);

  int vocab_size_;
  int64_t num_docs_ = 0;
  tensor::Tensor counts_;          // V x V, symmetric
  std::vector<double> marginals_;  // V
};

// Positive PMI transform of weighted co-occurrence counts:
//   PPMI_ij = max(0, log(p_ij / (p_i p_j)))
// with additive smoothing `alpha` on pair counts.
tensor::Tensor PpmiMatrix(const CooccurrenceCounts& counts,
                          double alpha = 0.5);

}  // namespace embed
}  // namespace contratopic

#endif  // CONTRATOPIC_EMBED_COOCCURRENCE_H_
