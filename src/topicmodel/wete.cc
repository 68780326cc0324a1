#include "topicmodel/wete.h"

#include "tensor/kernels.h"
#include "util/string_util.h"

namespace contratopic {
namespace topicmodel {

using namespace autodiff;  // NOLINT: op-heavy translation unit

WeTeModel::WeTeModel(const TrainConfig& config,
                     const embed::WordEmbeddings& embeddings)
    : WeTeModel(config, embeddings, Options{}, "WeTe") {}

WeTeModel::WeTeModel(const TrainConfig& config,
                     const embed::WordEmbeddings& embeddings, Options options,
                     std::string name)
    : NeuralTopicModel(std::move(name), config), options_(options) {
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
  encoder_mlp_ = std::make_unique<nn::Mlp>(mlp, rng_, "wete_enc");
  theta_head_ = std::make_unique<nn::Linear>(config.encoder_hidden,
                                             config.num_topics, rng_, "theta");
}

Var WeTeModel::EncodeTheta(const Var& x_normalized) {
  return SoftmaxRows(theta_head_->Forward(encoder_mlp_->Forward(x_normalized)));
}

Var WeTeModel::CostMatrix() {
  Var cosine =
      MatMul(rho_norm_, RowL2Normalize(topic_embeddings_), false, true);
  return AddScalar(Neg(cosine), 1.0f);
}

Var WeTeModel::BetaVar() {
  Var cosine =
      MatMul(RowL2Normalize(topic_embeddings_), rho_norm_, false, true);
  return SoftmaxRows(MulScalar(cosine, 1.0f / options_.tau_beta));
}

NeuralTopicModel::BatchGraph WeTeModel::BuildBatch(const Batch& batch) {
  const int64_t b = batch.normalized.rows();
  Var x_norm = Var::Constant(batch.normalized);
  Var theta = EncodeTheta(x_norm);
  Var cost = CostMatrix();  // V x K

  // Forward direction (doc -> topics): each word pays its soft-min topic
  // distance. q = softmax_k(-C/gamma); s_w = sum_k q_wk C_wk; cost is
  // sum_d sum_w x_dw s_w.
  Var q = SoftmaxRows(MulScalar(cost, -1.0f / options_.gamma));
  Var softmin = RowSum(Mul(q, cost));  // V x 1
  Var forward_cost = SumAll(MatMul(x_norm, softmin));

  // Backward direction (topics -> doc): topic k pays its expected distance
  // to the doc's words under p(w|k, d) proportional to x_dw exp(-C_wk/g):
  //   E = exp(-C/gamma); N = x (E .* C); Z = x E; cost = sum theta .* N/Z.
  Var e = Exp(MulScalar(cost, -1.0f / options_.gamma));  // V x K
  Var n = MatMul(x_norm, Mul(e, cost));                  // B x K
  Var z = AddScalar(MatMul(x_norm, e), 1e-12f);          // B x K
  Var backward_cost = SumAll(Mul(theta, Div(n, z)));

  const float inv_batch = 1.0f / static_cast<float>(b);
  Var loss = MulScalar(
      Add(forward_cost, MulScalar(backward_cost, options_.backward_weight)),
      inv_batch);
  return {loss, BetaVar(), {}};
}

Tensor WeTeModel::InferThetaBatch(const Tensor& x_normalized) {
  // Eval mode is set once by NeuralTopicModel::InferTheta; setting it here
  // per batch would race when batches run on pool workers.
  return EncodeTheta(Var::Constant(x_normalized)).value();
}

Var WeTeModel::EncodeRepresentation(const Tensor& x_normalized) {
  return EncodeTheta(Var::Constant(x_normalized));
}

std::vector<nn::NamedTensor> WeTeModel::Buffers() {
  std::vector<nn::NamedTensor> buffers = encoder_mlp_->Buffers();
  buffers.push_back({"rho_norm", &rho_norm_.node()->value});
  return buffers;
}

ModelDescriptor WeTeModel::Describe() const {
  ModelDescriptor d;
  d.type = "wete";
  d.display_name = name_;
  d.config = config_;
  d.vocab_size = static_cast<int>(rho_norm_.value().rows());
  d.embedding_dim = static_cast<int>(rho_norm_.value().cols());
  d.extras.emplace_back("gamma", util::StrFormat("%.9g", options_.gamma));
  d.extras.emplace_back("tau_beta",
                        util::StrFormat("%.9g", options_.tau_beta));
  return d;
}

std::vector<nn::Parameter> WeTeModel::Parameters() {
  std::vector<nn::Parameter> params = encoder_mlp_->Parameters();
  for (auto& p : theta_head_->Parameters()) params.push_back(p);
  params.push_back({"topic_embeddings", topic_embeddings_});
  return params;
}

void WeTeModel::SetTraining(bool training) {
  training_ = training;
  encoder_mlp_->SetTraining(training);
  theta_head_->SetTraining(training);
}

}  // namespace topicmodel
}  // namespace contratopic
