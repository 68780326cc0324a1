#include "topicmodel/etm.h"

#include "util/string_util.h"

namespace contratopic {
namespace topicmodel {

using namespace autodiff;  // NOLINT: op-heavy translation unit

EtmModel::EtmModel(const TrainConfig& config,
                   const embed::WordEmbeddings& embeddings)
    : EtmModel(config, embeddings, Options{}, "ETM") {}

EtmModel::EtmModel(const TrainConfig& config,
                   const embed::WordEmbeddings& embeddings, Options options,
                   std::string name)
    : NeuralTopicModel(std::move(name), config), options_(options) {
  CHECK_GT(embeddings.vocab_size(), 0);
  rho_ = Var::Constant(embeddings.vectors());
  topic_embeddings_ = Var::Leaf(
      Tensor::RandNormal(config.num_topics, embeddings.dimension(), rng_,
                         0.0f, 0.02f),
      /*requires_grad=*/true);
  encoder_ = std::make_unique<VaeEncoder>(embeddings.vocab_size(),
                                          config.num_topics, config, rng_);
}

Var EtmModel::BetaVar() {
  // softmax over the vocabulary of (t rho^T) / tau.
  Var logits = MulScalar(MatMul(topic_embeddings_, rho_, false, true),
                         1.0f / options_.tau_beta);
  return SoftmaxRows(logits);
}

EtmModel::ElboGraph EtmModel::BuildElbo(const Batch& batch) {
  ElboGraph g;
  Var x_norm = Var::Constant(batch.normalized);
  Var x_counts = Var::Constant(batch.counts);
  g.encoded = encoder_->Forward(x_norm, /*sample=*/training_);
  g.beta = BetaVar();
  // Reconstruction: -sum_d sum_w x_dw log(theta_d . beta_w).
  g.word_probs = MatMul(g.encoded.theta, g.beta);  // B x V
  Var recon = Neg(SumAll(Mul(x_counts, Log(g.word_probs, 1e-10f))));
  Var kl = VaeEncoder::KlDivergence(g.encoded);
  const float inv_batch = 1.0f / static_cast<float>(batch.counts.rows());
  g.loss = MulScalar(Add(recon, kl), inv_batch);
  g.recon_term = MulScalar(recon, inv_batch);
  g.kl_term = MulScalar(kl, inv_batch);
  g.recon = recon.value().scalar() * inv_batch;
  g.kl = kl.value().scalar() * inv_batch;
  return g;
}

NeuralTopicModel::BatchGraph EtmModel::BuildBatch(const Batch& batch) {
  ElboGraph g = BuildElbo(batch);
  BatchGraph out;
  out.loss = g.loss;
  out.beta = g.beta;
  out.loss_components = {{"recon", g.recon}, {"kl", g.kl}};
  out.objectives = {{"recon", g.recon_term}, {"kl", g.kl_term}};
  return out;
}

Tensor EtmModel::InferThetaBatch(const Tensor& x_normalized) {
  // Eval mode is set once by NeuralTopicModel::InferTheta; setting it here
  // per batch would race when batches run on pool workers.
  VaeEncoder::Output out =
      encoder_->Forward(Var::Constant(x_normalized), /*sample=*/false);
  return out.theta.value();
}

Var EtmModel::EncodeRepresentation(const Tensor& x_normalized) {
  return encoder_->Forward(Var::Constant(x_normalized), /*sample=*/false).mu;
}

std::vector<nn::Parameter> EtmModel::Parameters() {
  std::vector<nn::Parameter> params = encoder_->Parameters();
  params.push_back({"topic_embeddings", topic_embeddings_});
  return params;
}

std::vector<nn::NamedTensor> EtmModel::Buffers() {
  std::vector<nn::NamedTensor> buffers = encoder_->Buffers();
  // rho is frozen, but a restored process rebuilds the model around
  // placeholder embeddings — the true values must ride in the checkpoint.
  buffers.push_back({"rho", &rho_.node()->value});
  return buffers;
}

ModelDescriptor EtmModel::DescribeAs(const std::string& type) const {
  ModelDescriptor d;
  d.type = type;
  d.display_name = name_;
  d.config = config_;
  d.vocab_size = static_cast<int>(rho_.value().rows());
  d.embedding_dim = static_cast<int>(rho_.value().cols());
  d.extras.emplace_back("tau_beta",
                        util::StrFormat("%.9g", options_.tau_beta));
  return d;
}

ModelDescriptor EtmModel::Describe() const { return DescribeAs("etm"); }

void EtmModel::SetTraining(bool training) {
  training_ = training;
  encoder_->SetTraining(training);
}

}  // namespace topicmodel
}  // namespace contratopic
