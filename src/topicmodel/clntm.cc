#include "topicmodel/clntm.h"

#include <algorithm>
#include <cmath>

#include "topicmodel/augment.h"
#include "util/string_util.h"

namespace contratopic {
namespace topicmodel {

using namespace autodiff;  // NOLINT: op-heavy translation unit

ClntmModel::ClntmModel(const TrainConfig& config,
                       const embed::WordEmbeddings& embeddings)
    : ClntmModel(config, embeddings, Options{}) {}

ClntmModel::ClntmModel(const TrainConfig& config,
                       const embed::WordEmbeddings& embeddings,
                       Options options)
    : EtmModel(config, embeddings, EtmModel::Options{}, "CLNTM"),
      options_(options) {}

void ClntmModel::Prepare(const text::BowCorpus& corpus) {
  doc_freq_ = corpus.DocumentFrequencies();
}

NeuralTopicModel::BatchGraph ClntmModel::BuildBatch(const Batch& batch) {
  ElboGraph g = BuildElbo(batch);
  CHECK(batch.corpus != nullptr);

  // Views driven by the detached reconstruction theta . beta: the views
  // enter the graph as constants, so no gradient flows through the
  // substitution.
  const Tensor tfidf = batch.corpus->TfIdfBatch(batch.indices, doc_freq_);
  Tensor positive;
  Tensor negative;
  BuildReconSubstitutedViews(batch.normalized, tfidf, g.word_probs.value(),
                             options_.salient_fraction, &positive, &negative);

  // Representations: the (deterministic) encoder mean of each view,
  // L2-normalized; similarity = dot / temperature.
  Var h = RowL2Normalize(g.encoded.mu);
  Var h_pos = RowL2Normalize(
      encoder_->Forward(Var::Constant(positive), /*sample=*/false).mu);
  Var h_neg = RowL2Normalize(
      encoder_->Forward(Var::Constant(negative), /*sample=*/false).mu);
  const float inv_tau = 1.0f / options_.temperature;
  // InfoNCE: each document's positive is its own perturbed view; the
  // other documents' positive views act as in-batch negatives and the
  // salient-substituted view as an extra hard negative.
  Var sim = MulScalar(MatMul(h, h_pos, false, true), inv_tau);  // B x B
  Var s_pos = MulScalar(RowSum(Mul(h, h_pos)), inv_tau);        // B x 1
  Var s_neg = MulScalar(RowSum(Mul(h, h_neg)), inv_tau);        // B x 1
  // Denominator log(sum_j e^{sim_ij} + e^{s_neg_i}), assembled as
  // lse + softplus(s_neg - lse) so it stays one fixed op sequence.
  Var lse = LogSumExpRows(sim);
  Var denom = Add(lse, Softplus(Sub(s_neg, lse)));
  Var contrast = MeanAll(Sub(denom, s_pos));

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

ModelDescriptor ClntmModel::Describe() const {
  ModelDescriptor d = DescribeAs("clntm");
  d.extras.emplace_back("contrast_weight",
                        util::StrFormat("%.9g", options_.contrast_weight));
  d.extras.emplace_back("temperature",
                        util::StrFormat("%.9g", options_.temperature));
  d.extras.emplace_back("salient_fraction",
                        util::StrFormat("%.9g", options_.salient_fraction));
  return d;
}

}  // namespace topicmodel
}  // namespace contratopic
