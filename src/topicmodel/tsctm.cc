#include "topicmodel/tsctm.h"

#include <vector>

#include "util/string_util.h"

namespace contratopic {
namespace topicmodel {

using namespace autodiff;  // NOLINT: op-heavy translation unit

TsctmModel::TsctmModel(const TrainConfig& config,
                       const embed::WordEmbeddings& embeddings)
    : TsctmModel(config, embeddings, Options{}) {}

TsctmModel::TsctmModel(const TrainConfig& config,
                       const embed::WordEmbeddings& embeddings,
                       Options options)
    : EtmModel(config, embeddings, EtmModel::Options{}, "TSCTM"),
      options_(options) {}

NeuralTopicModel::BatchGraph TsctmModel::BuildBatch(const Batch& batch) {
  ElboGraph g = BuildElbo(batch);
  const int64_t batch_size = batch.counts.rows();

  // Quantization: each document is assigned to its argmax topic. The strict
  // > keeps the lowest index on ties, so the assignment is a pure function
  // of theta's bits.
  const Tensor& theta_value = g.encoded.theta.value();
  std::vector<int> quant(batch_size, 0);
  for (int64_t r = 0; r < batch_size; ++r) {
    const float* row = theta_value.row(r);
    int best = 0;
    for (int64_t k = 1; k < theta_value.cols(); ++k) {
      if (row[k] > row[best]) best = static_cast<int>(k);
    }
    quant[r] = best;
  }

  // Document features in topic-embedding space.
  Var z = RowL2Normalize(MatMul(g.encoded.theta, topic_embeddings_));
  const float inv_tau = 1.0f / options_.temperature;
  Var logits = MulScalar(MatMul(z, z, false, true), inv_tau);  // B x B

  // Quantization-index masks (constants): same-index pairs are positives,
  // different-index pairs feed the denominator. A row only contributes
  // when it has at least one of each -- MaskedLogSumExpRows returns its
  // empty-row sentinel otherwise, which the indicator zeroes out.
  Tensor pos_mask(batch_size, batch_size);
  Tensor neg_mask(batch_size, batch_size);
  Tensor inv_pos_count(batch_size, 1);
  Tensor indicator(batch_size, 1);
  int active_rows = 0;
  for (int64_t i = 0; i < batch_size; ++i) {
    int pos_count = 0;
    int neg_count = 0;
    for (int64_t j = 0; j < batch_size; ++j) {
      if (quant[i] == quant[j]) {
        if (i != j) {
          pos_mask.at(i, j) = 1.0f;
          ++pos_count;
        }
      } else {
        neg_mask.at(i, j) = 1.0f;
        ++neg_count;
      }
    }
    if (pos_count > 0 && neg_count > 0) {
      inv_pos_count.at(i, 0) = 1.0f / static_cast<float>(pos_count);
      indicator.at(i, 0) = 1.0f;
      ++active_rows;
    }
  }

  // l_tsc = mean over active rows of (denominator - mean positive logit).
  Var contrast;
  Var mean_pos = Mul(RowSum(ApplyMask(logits, pos_mask)),
                     Var::Constant(inv_pos_count));
  Var denom = Mul(MaskedLogSumExpRows(logits, neg_mask),
                  Var::Constant(indicator));
  Var l_tsc = active_rows > 0
                  ? MulScalar(SumAll(Sub(denom, mean_pos)),
                              1.0f / static_cast<float>(active_rows))
                  : Var::Constant(Tensor::Scalar(0.0f));

  // l_anchor: cross-entropy of z against its own quantization anchor
  // (GatherRows duplicates anchors across the batch; the backward
  // scatter-adds into the shared topic embeddings) over all K anchors.
  Var anchors = RowL2Normalize(topic_embeddings_);  // K x e
  Var anchor_logits = MulScalar(MatMul(z, anchors, false, true), inv_tau);
  Var own_anchor = MulScalar(RowSum(Mul(z, GatherRows(anchors, quant))),
                             inv_tau);
  Var l_anchor = MeanAll(Sub(LogSumExpRows(anchor_logits), own_anchor));

  contrast = Add(l_tsc, MulScalar(l_anchor, options_.anchor_weight));
  Var loss = Add(g.loss, MulScalar(contrast, options_.contrast_weight));

  BatchGraph out;
  out.loss = loss;
  out.beta = g.beta;
  out.loss_components = {{"recon", g.recon},
                         {"kl", g.kl},
                         {"l_con", contrast.value().scalar()}};
  out.objectives = {{"recon", g.recon_term},
                    {"kl", g.kl_term},
                    {"l_con", contrast}};
  return out;
}

ModelDescriptor TsctmModel::Describe() const {
  ModelDescriptor d = DescribeAs("tsctm");
  d.extras.emplace_back("contrast_weight",
                        util::StrFormat("%.9g", options_.contrast_weight));
  d.extras.emplace_back("temperature",
                        util::StrFormat("%.9g", options_.temperature));
  d.extras.emplace_back("anchor_weight",
                        util::StrFormat("%.9g", options_.anchor_weight));
  return d;
}

}  // namespace topicmodel
}  // namespace contratopic
