#include "core/contratopic.h"

#include <algorithm>
#include <unordered_set>

#include "tensor/kernels.h"
#include "topicmodel/augment.h"
#include "topicmodel/etm.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace contratopic {
namespace core {

using namespace autodiff;  // NOLINT: op-heavy translation unit
using topicmodel::NeuralTopicModel;

std::string VariantName(Variant variant) {
  switch (variant) {
    case Variant::kFull:
      return "ContraTopic";
    case Variant::kPositiveOnly:
      return "ContraTopic-P";
    case Variant::kNegativeOnly:
      return "ContraTopic-N";
    case Variant::kInnerProduct:
      return "ContraTopic-I";
    case Variant::kExpectation:
      return "ContraTopic-S";
  }
  return "ContraTopic";
}

namespace {

std::string ModelName(const ContraTopicOptions& options,
                      const NeuralTopicModel& backbone) {
  std::string name = VariantName(options.variant);
  if (backbone.name() != "ETM") name += "(" + backbone.name() + ")";
  return name;
}

}  // namespace

ContraTopicModel::ContraTopicModel(
    std::unique_ptr<NeuralTopicModel> backbone,
    const topicmodel::TrainConfig& config, ContraTopicOptions options,
    const embed::WordEmbeddings* embeddings)
    : NeuralTopicModel(ModelName(options, *backbone), config),
      backbone_(std::move(backbone)),
      options_(options),
      embeddings_(embeddings) {
  if (options_.variant == Variant::kInnerProduct) {
    CHECK(embeddings_ != nullptr)
        << "ContraTopic-I needs word embeddings for its kernel";
  }
  CHECK_GT(options_.v, 0);
}

void ContraTopicModel::Prepare(const text::BowCorpus& corpus) {
  backbone_->Prepare(corpus);
  kernel_cache_valid_ = false;
  if (options_.document_contrast_weight > 0.0f) {
    doc_freq_ = corpus.DocumentFrequencies();
  }
  if (options_.variant == Variant::kInnerProduct) {
    // Embedding-cosine kernel (the NTM-R style similarity; Table II row
    // ContraTopic-I). Rows normalized so values live in [-1, 1] like NPMI.
    embedding_cosine_ = tensor::PairwiseCosine(embeddings_->vectors(),
                                               embeddings_->vectors());
  } else if (train_npmi_ == nullptr) {
    // The paper's kernel: NPMI pre-computed on the *training* corpus.
    // (Skipped when a kernel was injected via SetKernel, as in the online
    // extension where co-occurrence statistics accumulate across slices.)
    train_npmi_ =
        std::make_unique<eval::NpmiMatrix>(eval::NpmiMatrix::Compute(corpus));
  }
}

std::vector<int> ContraTopicModel::CandidateWords(
    const Tensor& beta_value) const {
  const int vocab = static_cast<int>(beta_value.cols());
  if (options_.candidate_words <= 0 || options_.candidate_words >= vocab) {
    std::vector<int> all(vocab);
    for (int i = 0; i < vocab; ++i) all[i] = i;
    return all;
  }
  // Top-k per topic is independent work; the union is order-insensitive
  // because the result is sorted before use.
  std::vector<std::vector<int>> per_topic(beta_value.rows());
  util::ThreadPool::Global().ParallelFor(
      0, beta_value.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t k = lo; k < hi; ++k) {
          per_topic[k] =
              beta_value.TopKIndicesOfRow(k, options_.candidate_words);
        }
      },
      /*grain=*/1);
  std::unordered_set<int> unioned;
  for (const auto& topic_words : per_topic) {
    unioned.insert(topic_words.begin(), topic_words.end());
  }
  std::vector<int> words(unioned.begin(), unioned.end());
  std::sort(words.begin(), words.end());
  return words;
}

Tensor ContraTopicModel::KernelSubMatrix(const std::vector<int>& words) const {
  if (kernel_cache_valid_ && kernel_cache_words_ == words) {
    return kernel_cache_;
  }
  Tensor sub;
  if (options_.variant == Variant::kInnerProduct) {
    sub = tensor::GatherSquare(embedding_cosine_, words);
  } else {
    CHECK(train_npmi_ != nullptr) << "Prepare() was not called";
    sub = train_npmi_->SubMatrix(words);
  }
  if (options_.clip_kernel_at_zero) {
    sub.Apply([](float v) { return v > 0.0f ? v : 0.0f; });
  }
  kernel_cache_valid_ = true;
  kernel_cache_words_ = words;
  kernel_cache_ = sub;
  return sub;
}

NeuralTopicModel::BatchGraph ContraTopicModel::BuildBatch(
    const topicmodel::Batch& batch) {
  BatchGraph base = backbone_->BuildBatch(batch);
  CHECK(base.beta.defined());

  // Restrict to the candidate vocabulary (DESIGN.md §5 #1).
  const std::vector<int> words = CandidateWords(base.beta.value());
  Var beta_candidates = SelectColumns(base.beta, words);
  const Tensor kernel = KernelSubMatrix(words);

  Var contrast;
  switch (options_.variant) {
    case Variant::kExpectation:
      contrast = ExpectationContrastiveLoss(beta_candidates, kernel,
                                            options_.tau_contrast);
      break;
    case Variant::kPositiveOnly:
    case Variant::kNegativeOnly:
    case Variant::kFull:
    case Variant::kInnerProduct: {
      SubsetSample sample = SampleTopVWithoutReplacement(
          Log(beta_candidates, 1e-20f), options_.v, options_.tau_gumbel,
          rng_, options_.straight_through);
      ContrastVariant cv = ContrastVariant::kFull;
      if (options_.variant == Variant::kPositiveOnly) {
        cv = ContrastVariant::kPositiveOnly;
      } else if (options_.variant == Variant::kNegativeOnly) {
        cv = ContrastVariant::kNegativeOnly;
      }
      contrast = TopicContrastiveLoss(sample.steps, kernel, cv,
                                      options_.tau_contrast);
      break;
    }
  }
  last_contrastive_loss_ = contrast.value().scalar();

  // Linear lambda warmup (0 at step 0, full after warmup_fraction).
  float lambda = options_.lambda;
  if (options_.warmup_fraction > 0.0f) {
    const float ramp = static_cast<float>(TrainingProgress()) /
                       options_.warmup_fraction;
    lambda *= std::min(1.0f, ramp);
  }
  Var loss = Add(base.loss, MulScalar(contrast, lambda));
  BatchGraph out;
  out.beta = base.beta;
  out.loss_components = std::move(base.loss_components);
  out.loss_components.emplace_back(
      "l_con", static_cast<float>(last_contrastive_loss_));
  // Unweighted terms for --loss-weighting=moo: the backbone's objectives
  // (empty for backbones that predate the split, which disables MOO) plus
  // the raw contrastive terms -- MOO-derived weights then replace the
  // fixed lambda / warmup ramp.
  out.objectives = std::move(base.objectives);
  if (!out.objectives.empty()) {
    out.objectives.emplace_back("l_con", contrast);
  }
  if (options_.document_contrast_weight > 0.0f) {
    Var doc_term = DocumentContrastTerm(batch);
    if (doc_term.defined()) {
      out.loss_components.emplace_back("l_doc", doc_term.value().scalar());
      loss = Add(loss,
                 MulScalar(doc_term, options_.document_contrast_weight));
      if (!out.objectives.empty()) {
        out.objectives.emplace_back("l_doc", doc_term);
      }
    }
  }
  out.loss = loss;
  return out;
}

Var ContraTopicModel::DocumentContrastTerm(const topicmodel::Batch& batch) {
  Var h = backbone_->EncodeRepresentation(batch.normalized);
  if (!h.defined()) return Var();  // Backbone has no document encoder.
  CHECK(batch.corpus != nullptr);
  Tensor positive;
  Tensor negative;
  const Tensor tfidf = batch.corpus->TfIdfBatch(batch.indices, doc_freq_);
  topicmodel::BuildTfIdfViews(batch.normalized, tfidf,
                              /*salient_fraction=*/0.25f, &positive,
                              &negative);
  Var hn = RowL2Normalize(h);
  Var h_pos = RowL2Normalize(backbone_->EncodeRepresentation(positive));
  Var h_neg = RowL2Normalize(backbone_->EncodeRepresentation(negative));
  const float inv_tau = 1.0f / options_.document_contrast_temperature;
  Var s_pos = MulScalar(RowSum(Mul(hn, h_pos)), inv_tau);
  Var s_neg = MulScalar(RowSum(Mul(hn, h_neg)), inv_tau);
  // InfoNCE with one positive / one negative: softplus(s_neg - s_pos).
  return MeanAll(Softplus(Sub(s_neg, s_pos)));
}

Tensor ContraTopicModel::InferThetaBatch(const Tensor& x_normalized) {
  return backbone_->InferThetaBatch(x_normalized);
}

std::vector<nn::Parameter> ContraTopicModel::Parameters() {
  return backbone_->Parameters();
}

std::vector<nn::NamedTensor> ContraTopicModel::Buffers() {
  // Inference runs entirely through the backbone; the kernel / candidate
  // machinery only exists at training time and is not serving state.
  return backbone_->Buffers();
}

topicmodel::ModelDescriptor ContraTopicModel::Describe() const {
  topicmodel::ModelDescriptor backbone_desc = backbone_->Describe();
  topicmodel::ModelDescriptor d;
  d.display_name = name_;
  d.config = config_;
  d.vocab_size = backbone_desc.vocab_size;
  d.embedding_dim = backbone_desc.embedding_dim;
  std::string suffix;
  switch (options_.variant) {
    case Variant::kFull:
      break;
    case Variant::kPositiveOnly:
      suffix = "-p";
      break;
    case Variant::kNegativeOnly:
      suffix = "-n";
      break;
    case Variant::kInnerProduct:
      suffix = "-i";
      break;
    case Variant::kExpectation:
      suffix = "-s";
      break;
  }
  if (backbone_desc.type == "etm") {
    d.type = "contratopic" + suffix;
  } else if (suffix.empty() && backbone_desc.type == "wlda") {
    d.type = "contratopic-wlda";
  } else if (suffix.empty() && backbone_desc.type == "wete") {
    d.type = "contratopic-wete";
  }
  // Else: no zoo name covers this backbone/variant combination, so the
  // descriptor stays non-checkpointable (type empty).
  d.extras.emplace_back("lambda", util::StrFormat("%.9g", options_.lambda));
  d.extras.emplace_back("v", std::to_string(options_.v));
  d.extras.emplace_back("tau_gumbel",
                        util::StrFormat("%.9g", options_.tau_gumbel));
  d.extras.emplace_back("tau_contrast",
                        util::StrFormat("%.9g", options_.tau_contrast));
  d.extras.emplace_back("candidate_words",
                        std::to_string(options_.candidate_words));
  d.extras.emplace_back("clip_kernel_at_zero",
                        options_.clip_kernel_at_zero ? "1" : "0");
  d.extras.emplace_back("warmup_fraction",
                        util::StrFormat("%.9g", options_.warmup_fraction));
  d.extras.emplace_back("straight_through",
                        options_.straight_through ? "1" : "0");
  d.extras.emplace_back(
      "document_contrast_weight",
      util::StrFormat("%.9g", options_.document_contrast_weight));
  d.extras.emplace_back(
      "document_contrast_temperature",
      util::StrFormat("%.9g", options_.document_contrast_temperature));
  for (const auto& [key, value] : backbone_desc.extras) {
    d.extras.emplace_back("backbone." + key, value);
  }
  return d;
}

void ContraTopicModel::SetTraining(bool training) {
  training_ = training;
  backbone_->SetTraining(training);
}

std::vector<util::Rng*> ContraTopicModel::TrainingRngs() {
  std::vector<util::Rng*> streams = {&rng_};
  for (util::Rng* stream : backbone_->TrainingRngs()) {
    streams.push_back(stream);
  }
  return streams;
}

void ContraTopicModel::SetKernel(std::unique_ptr<eval::NpmiMatrix> npmi) {
  CHECK(options_.variant != Variant::kInnerProduct)
      << "ContraTopic-I uses an embedding kernel";
  train_npmi_ = std::move(npmi);
  kernel_cache_valid_ = false;
}

int64_t ContraTopicModel::ExtraMemoryBytes() const {
  if (train_npmi_ != nullptr) return train_npmi_->MemoryBytes();
  return embedding_cosine_.numel() * static_cast<int64_t>(sizeof(float));
}

std::unique_ptr<ContraTopicModel> MakeContraTopicEtm(
    const topicmodel::TrainConfig& config,
    const embed::WordEmbeddings& embeddings, ContraTopicOptions options) {
  auto backbone = std::make_unique<topicmodel::EtmModel>(config, embeddings);
  return std::make_unique<ContraTopicModel>(std::move(backbone), config,
                                            options, &embeddings);
}

}  // namespace core
}  // namespace contratopic
