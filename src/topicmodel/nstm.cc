#include "topicmodel/nstm.h"

#include "tensor/kernels.h"
#include "util/string_util.h"

namespace contratopic {
namespace topicmodel {

using namespace autodiff;  // NOLINT: op-heavy translation unit

NstmModel::NstmModel(const TrainConfig& config,
                     const embed::WordEmbeddings& embeddings)
    : NstmModel(config, embeddings, Options{}) {}

NstmModel::NstmModel(const TrainConfig& config,
                     const embed::WordEmbeddings& embeddings, Options options)
    : NeuralTopicModel("NSTM", config), options_(options) {
  rho_norm_ = Var::Constant(tensor::RowL2Normalized(embeddings.vectors()));
  topic_embeddings_ = Var::Leaf(
      Tensor::RandNormal(config.num_topics, embeddings.dimension(), rng_,
                         0.0f, 0.1f),
      /*requires_grad=*/true);
  nn::Mlp::Config mlp;
  mlp.layer_sizes = {embeddings.vocab_size(), config.encoder_hidden};
  for (int i = 1; i < std::max(1, config.encoder_layers); ++i) {
    mlp.layer_sizes.push_back(config.encoder_hidden);
  }
  mlp.activation = nn::Activation::kSelu;
  mlp.dropout_rate = config.dropout;
  mlp.batch_norm = config.batch_norm;
  encoder_mlp_ = std::make_unique<nn::Mlp>(mlp, rng_, "nstm_enc");
  theta_head_ = std::make_unique<nn::Linear>(config.encoder_hidden,
                                             config.num_topics, rng_, "theta");
}

Var NstmModel::EncodeTheta(const Var& x_normalized) {
  return SoftmaxRows(theta_head_->Forward(encoder_mlp_->Forward(x_normalized)));
}

Var NstmModel::CostMatrix() {
  // 1 - rho_n t_n^T, in [0, 2].
  Var cosine =
      MatMul(rho_norm_, RowL2Normalize(topic_embeddings_), false, true);
  return AddScalar(Neg(cosine), 1.0f);
}

Var NstmModel::BetaVar() {
  // Topics read off the cosine similarities with a sharp softmax.
  Var cosine =
      MatMul(RowL2Normalize(topic_embeddings_), rho_norm_, false, true);
  return SoftmaxRows(MulScalar(cosine, 1.0f / options_.tau_beta));
}

NeuralTopicModel::BatchGraph NstmModel::BuildBatch(const Batch& batch) {
  const int64_t b = batch.normalized.rows();
  Var x_norm = Var::Constant(batch.normalized);
  Var theta = EncodeTheta(x_norm);
  Var cost = CostMatrix();                                    // V x K
  Var kernel = Exp(MulScalar(cost, -1.0f / options_.sinkhorn_epsilon));

  // Batched Sinkhorn between each document's word distribution (rows of
  // x_norm) and its theta row, unrolled for a fixed iteration count.
  Var u = Var::Constant(Tensor::Ones(b, batch.normalized.cols()));
  Var v = Var::Constant(Tensor::Ones(b, config_.num_topics));
  for (int it = 0; it < options_.sinkhorn_iterations; ++it) {
    // v = theta / (K^T u); u = x / (K v).
    v = Div(theta, AddScalar(MatMul(u, kernel), 1e-12f));
    u = Div(x_norm, AddScalar(MatMul(v, kernel, false, true), 1e-12f));
  }
  // Transport cost: sum_b u_b^T (K .* C) v_b.
  Var kernel_cost = Mul(kernel, cost);  // V x K
  Var ot = SumAll(Mul(u, MatMul(v, kernel_cost, false, true)));
  const float inv_batch = 1.0f / static_cast<float>(b);

  // Auxiliary reconstruction keeps topics predictive (weighted lightly).
  Var beta = BetaVar();
  Var recon = Neg(SumAll(
      Mul(Var::Constant(batch.counts), Log(MatMul(theta, beta), 1e-10f))));

  Var loss = MulScalar(
      Add(ot, MulScalar(recon, options_.recon_weight)), inv_batch);
  return {loss, beta, {}};
}

Tensor NstmModel::InferThetaBatch(const Tensor& x_normalized) {
  // Eval mode is set once by NeuralTopicModel::InferTheta; setting it here
  // per batch would race when batches run on pool workers.
  return EncodeTheta(Var::Constant(x_normalized)).value();
}

std::vector<nn::NamedTensor> NstmModel::Buffers() {
  std::vector<nn::NamedTensor> buffers = encoder_mlp_->Buffers();
  buffers.push_back({"rho_norm", &rho_norm_.node()->value});
  return buffers;
}

ModelDescriptor NstmModel::Describe() const {
  ModelDescriptor d;
  d.type = "nstm";
  d.display_name = name_;
  d.config = config_;
  d.vocab_size = static_cast<int>(rho_norm_.value().rows());
  d.embedding_dim = static_cast<int>(rho_norm_.value().cols());
  d.extras.emplace_back("sinkhorn_epsilon",
                        util::StrFormat("%.9g", options_.sinkhorn_epsilon));
  d.extras.emplace_back("sinkhorn_iterations",
                        std::to_string(options_.sinkhorn_iterations));
  d.extras.emplace_back("tau_beta",
                        util::StrFormat("%.9g", options_.tau_beta));
  return d;
}

std::vector<nn::Parameter> NstmModel::Parameters() {
  std::vector<nn::Parameter> params = encoder_mlp_->Parameters();
  for (auto& p : theta_head_->Parameters()) params.push_back(p);
  params.push_back({"topic_embeddings", topic_embeddings_});
  return params;
}

void NstmModel::SetTraining(bool training) {
  training_ = training;
  encoder_mlp_->SetTraining(training);
  theta_head_->SetTraining(training);
}

}  // namespace topicmodel
}  // namespace contratopic
