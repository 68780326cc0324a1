#include "topicmodel/ntmr.h"

#include "tensor/kernels.h"
#include "util/string_util.h"

namespace contratopic {
namespace topicmodel {

using namespace autodiff;  // NOLINT: op-heavy translation unit

NtmrModel::NtmrModel(const TrainConfig& config,
                     const embed::WordEmbeddings& embeddings)
    : NtmrModel(config, embeddings, Options{}) {}

NtmrModel::NtmrModel(const TrainConfig& config,
                     const embed::WordEmbeddings& embeddings, Options options)
    : EtmModel(config, embeddings, EtmModel::Options{}, "NTM-R"),
      options_(options) {
  embeddings_norm_ =
      Var::Constant(tensor::RowL2Normalized(embeddings.vectors()));
}

NeuralTopicModel::BatchGraph NtmrModel::BuildBatch(const Batch& batch) {
  ElboGraph g = BuildElbo(batch);
  // Sharpened topic-word mass projected into embedding space. For a topic
  // concentrated on words with aligned embeddings the centroid norm
  // approaches 1; spreading mass over unrelated words shrinks it.
  Var sharp = SoftmaxRows(MulScalar(Log(g.beta, 1e-12f), options_.sharpen));
  Var centroids = MatMul(sharp, embeddings_norm_);  // K x e
  Var coherence = MeanAll(RowSum(Square(centroids)));
  Var loss =
      Sub(g.loss, MulScalar(coherence, options_.coherence_weight));
  return {loss, g.beta, {}};
}

std::vector<nn::NamedTensor> NtmrModel::Buffers() {
  std::vector<nn::NamedTensor> buffers = EtmModel::Buffers();
  // Derived from the true embeddings; a restored process rebuilds around
  // placeholders, so the normalized copy must be checkpointed too.
  buffers.push_back({"embeddings_norm", &embeddings_norm_.node()->value});
  return buffers;
}

ModelDescriptor NtmrModel::Describe() const {
  ModelDescriptor d = DescribeAs("ntmr");
  d.extras.emplace_back("coherence_weight",
                        util::StrFormat("%.9g", options_.coherence_weight));
  d.extras.emplace_back("sharpen",
                        util::StrFormat("%.9g", options_.sharpen));
  return d;
}

}  // namespace topicmodel
}  // namespace contratopic
