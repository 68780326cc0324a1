#ifndef CONTRATOPIC_TOPICMODEL_NEURAL_BASE_H_
#define CONTRATOPIC_TOPICMODEL_NEURAL_BASE_H_

// Shared machinery for the neural topic models: a VAE encoder block and a
// training loop (Adam + gradient clipping + minibatching). Concrete models
// implement BuildBatch(), returning the scalar batch loss plus the
// differentiable K x V topic-word Var -- the hook ContraTopic's topic-wise
// contrastive regularizer attaches to (enabling the paper's backbone
// substitution study, Figure 6).

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.h"
#include "nn/optimizer.h"
#include "tensor/autodiff.h"
#include "topicmodel/topic_model.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/telemetry.h"

namespace contratopic {
namespace topicmodel {

using autodiff::Var;
using tensor::Tensor;

// One minibatch handed to BuildBatch.
struct Batch {
  std::vector<int> indices;
  Tensor counts;      // B x V raw counts
  Tensor normalized;  // B x V, rows sum to 1
  const text::BowCorpus* corpus = nullptr;
};

// VAE inference network: MLP -> (mu, logvar) -> reparameterized logistic-
// normal theta (paper §III.B).
class VaeEncoder : public nn::Module {
 public:
  VaeEncoder(int64_t vocab_size, int64_t num_topics, const TrainConfig& config,
             util::Rng& rng);

  struct Output {
    Var mu;      // B x K
    Var logvar;  // B x K
    Var theta;   // B x K, rows sum to 1
  };
  // `sample` draws epsilon ~ N(0, I); when false theta = softmax(mu)
  // (used at inference time).
  Output Forward(const Var& x_normalized, bool sample);

  std::vector<nn::Parameter> Parameters() override;
  std::vector<nn::NamedTensor> Buffers() override;
  void SetTraining(bool training) override;

  // KL(q(theta|x) || N(0, I)) summed over the batch.
  static Var KlDivergence(const Output& encoded);

 private:
  nn::Mlp mlp_;
  nn::Linear mu_head_;
  nn::Linear logvar_head_;
  util::Rng* rng_;
};

// Serializable mid-training snapshot: everything RunTrainingLoop needs —
// beyond the parameter/buffer tensors themselves — to continue a run so
// that the remaining steps are bitwise-identical to an uninterrupted
// run's (DESIGN.md §11). Checkpoint v2 carries one of these next to the
// state dict; the numeric guard rails keep an in-memory copy (plus
// tensors) as the rollback target.
struct TrainingState {
  int num_docs = 0;       // training corpus size; validated on resume
  int total_epochs = 0;   // epoch budget of the interrupted Train() call
  int next_global_step = 0;  // steps completed so far
  nn::AdamState adam;
  // Every RNG stream the training loop consumes, in TrainingRngs()
  // order: the model's own generator (epoch shuffles, subclass draws)
  // first, then any wrapped models' (e.g. ContraTopic's backbone draws
  // its encoder noise from its own generator).
  std::vector<util::Rng::State> rngs;
  // Shuffle position of the minibatch iterator.
  std::vector<int> batch_order;
  int batch_cursor = 0;
  // Partial accumulators of the in-flight epoch, so a mid-epoch resume
  // reports the same epoch-mean loss as an uninterrupted run.
  double epoch_loss_sum = 0.0;
  std::vector<std::pair<std::string, double>> component_sums;
  double last_epoch_loss = 0.0;
};

// Numeric guard rails for the training loop. Contrastive objectives can
// destabilize ELBO optimization (Nguyen & Luu 2021); instead of aborting
// on a NaN, the loop detects bad steps and rolls back to the last good
// snapshot, reporting through TrainStats::status and telemetry.
struct GuardRailOptions {
  // Reject a step whose loss or pre-clip gradient norm is NaN/Inf.
  bool check_nonfinite = true;
  // > 0: reject a step whose batch loss exceeds this factor times the
  // previous completed epoch's mean loss (no reference in epoch one).
  // The reference is part of TrainingState, so spike decisions are
  // identical in resumed and uninterrupted runs.
  double loss_spike_factor = 0.0;
  // Rollbacks allowed before the loop gives up with kDataLoss.
  int max_rollbacks = 3;
};

// How the training loop turns a BatchGraph into a descent direction
// (DESIGN.md §17).
enum class LossWeighting {
  // Minimize BatchGraph::loss exactly as the model built it (the fixed-
  // lambda composition; default).
  kFixed,
  // Multi-objective contrastive optimization (Nguyen et al. 2024): treat
  // the named scalar objectives as a Pareto problem, backpropagate each
  // separately, and descend the combination weighted by inverse per-
  // objective gradient magnitude. Models that report no objectives fall
  // back to kFixed behavior.
  kMoo,
};

// Deterministic multi-objective weights: w_i proportional to
// 1 / (||g_i||_2 + eps), normalized so the weights sum to 1. Each norm is
// accumulated serially in double over tensors in list order and elements
// in row-major order -- the same canonical-reduction rule the SIMD kernels
// follow (DESIGN.md §12) -- so the weights, and with them the whole MOO
// optimizer trajectory, are bitwise thread/backend-invariant.
std::vector<double> MultiObjectiveWeights(
    const std::vector<std::vector<Tensor>>& objective_grads);

// Base class implementing Train()/InferTheta() on top of BuildBatch().
class NeuralTopicModel : public TopicModel {
 public:
  NeuralTopicModel(std::string name, const TrainConfig& config);

  std::string name() const override { return name_; }
  int num_topics() const override { return config_.num_topics; }

  TrainStats Train(const text::BowCorpus& corpus) override;
  // Continues an interrupted run from `state` (typically read from a
  // checkpoint v2 and restored onto this freshly rebuilt model via
  // serve::ResumeModel). Runs Prepare() then the remaining steps of the
  // original epoch budget. The resumed run's beta/theta/loss are
  // bitwise-identical to an uninterrupted run's at any thread count.
  // Returns interrupted stats with a non-OK status when `state` does not
  // match this model/corpus.
  TrainStats ResumeTraining(const text::BowCorpus& corpus,
                            const TrainingState& state);
  // Continues training an already-trained model on (new) data for
  // `epochs` epochs without re-running Prepare(): the online / streaming
  // path (paper §VI future work). Optimizer state is rebuilt per call.
  TrainStats TrainMore(const text::BowCorpus& corpus, int epochs);
  Tensor Beta() const override;
  Tensor InferTheta(const text::BowCorpus& corpus) override;

  // --- Hooks for subclasses -------------------------------------------

  struct BatchGraph {
    Var loss;  // 1x1 scalar to minimize
    Var beta;  // K x V differentiable topic-word distribution
    // Optional named scalar components of the loss -- e.g. {"recon", ...}
    // and {"kl", ...} from the VAE backbones, {"l_con", ...} from
    // ContraTopic. The training loop averages them per epoch into the
    // telemetry stream; models that report nothing emit a loss-only
    // epoch record.
    std::vector<std::pair<std::string, float>> loss_components;
    // Optional named scalar objective terms (each 1x1, sharing this
    // graph's nodes), e.g. {"recon", ...}, {"kl", ...}, {"l_con", ...}.
    // Under LossWeighting::kMoo the loop backpropagates each objective
    // separately and descends the Pareto-weighted combination instead of
    // d loss; models that leave this empty always train on `loss`. The
    // unweighted terms belong here: MOO replaces the fixed lambda.
    std::vector<std::pair<std::string, Var>> objectives;
  };
  // Builds the loss graph for one minibatch (training mode).
  virtual BatchGraph BuildBatch(const Batch& batch) = 0;

  // Maps a (B x V normalized) constant batch to a (B x K) theta tensor in
  // evaluation mode.
  virtual Tensor InferThetaBatch(const Tensor& x_normalized) = 0;

  // All trainable parameters.
  virtual std::vector<nn::Parameter> Parameters() = 0;
  virtual void SetTraining(bool training) = 0;

  // All persistent non-trainable tensors inference depends on: module
  // buffers (batch-norm running statistics) plus model constants derived
  // from the frozen embeddings (e.g. ETM's rho). Together with
  // Parameters() this must cover every tensor InferThetaBatch reads, or
  // a checkpoint-restored model will not reproduce the original bitwise.
  virtual std::vector<nn::NamedTensor> Buffers() { return {}; }

  // Parameters() and Buffers() flattened into one named state dict
  // (pointers into live model storage; unique names CHECK-enforced).
  std::vector<nn::NamedTensor> StateTensors();

  // Every RNG stream the training loop consumes, the model's own
  // generator first. Wrapper models that drive another NeuralTopicModel
  // (ContraTopic around its ETM backbone) must append the wrapped
  // model's streams: checkpoint/resume and guard-rail rollback restore
  // exactly these generators, and a stream left out silently desyncs the
  // encoder noise on replay (bitwise-resume tests catch this).
  virtual std::vector<util::Rng*> TrainingRngs() { return {&rng_}; }

  // Marks the model as trained with the given cached topic-word
  // distribution and switches it to evaluation mode — the final step of a
  // checkpoint restore, after StateTensors() have been overwritten.
  void RestoreTrainedState(Tensor beta);

  // Called once before the first epoch (models may precompute statistics
  // of the training corpus, e.g. NPMI or tf-idf).
  virtual void Prepare(const text::BowCorpus& corpus) {}

  // Optional: a differentiable document representation for contrastive
  // objectives over documents (CLNTM; ContraTopic's multi-level variant).
  // Undefined Var when the model does not support it.
  virtual Var EncodeRepresentation(const Tensor& x_normalized) {
    return Var();
  }

  // Extra per-method memory for the computational-analysis bench.
  virtual int64_t ExtraMemoryBytes() const { return 0; }

  const TrainConfig& config() const { return config_; }
  util::Rng& rng() { return rng_; }
  bool trained() const { return trained_; }

  // K x V beta from the most recent completed training step; defined once
  // one step has run and readable mid-training, unlike Beta() which
  // requires a trained model. Training checkpoints freeze this.
  const Tensor& LatestBeta() const { return final_beta_; }

  // Fraction of training completed, in [0, 1] (1 after training). Lets
  // subclasses ramp regularizers (e.g. ContraTopic's lambda warmup).
  double TrainingProgress() const { return training_progress_; }

  // --- Observability ---------------------------------------------------

  // Attaches a telemetry sink (not owned; may be null, and must outlive
  // training). The loop then streams one "epoch" JSONL record per epoch:
  // mean loss, loss components, evaluator metrics, and per-stage wall
  // time (see util/telemetry.h).
  void SetTelemetry(util::RunTelemetry* telemetry) { telemetry_ = telemetry; }

  // Per-epoch interpretability metrics computed from the epoch's final
  // beta, e.g. {"npmi", ...}, {"diversity", ...}. Runs on the training
  // thread after each epoch; keep it proportional to K x V, not corpus
  // size. The eval stack stays out of this layer -- the bench harness
  // wires in eval::PerTopicCoherence & friends.
  using EpochEvaluator =
      std::function<std::vector<std::pair<std::string, double>>(
          const Tensor& beta)>;
  void SetEpochEvaluator(EpochEvaluator evaluator) {
    epoch_evaluator_ = std::move(evaluator);
  }

  // --- Fault tolerance (DESIGN.md §11) ---------------------------------

  // Periodic auto-checkpointing: every `every_steps` completed steps (<= 0
  // means at every epoch boundary) the loop captures a TrainingState and
  // hands it to `sink` — typically serve::SaveTrainingCheckpoint bound to
  // a path. Sink failures are logged and counted
  // ("train.checkpoint_failures"), never fatal. The loop also consults
  // the "train.kill" fault-injection site right after each checkpoint;
  // when it fires, training stops with kCancelled — the in-process
  // stand-in for a crash that the recovery tests resume from.
  using CheckpointSink = std::function<util::Status(const TrainingState&)>;
  void SetAutoCheckpoint(int every_steps, CheckpointSink sink) {
    checkpoint_every_steps_ = every_steps;
    checkpoint_sink_ = std::move(sink);
  }

  // Arms the numeric guard rails (NaN/Inf and loss-spike detection with
  // rollback-to-last-good-snapshot).
  void SetGuardRails(const GuardRailOptions& options) {
    guard_rails_ = options;
    guard_rails_armed_ = true;
  }

  // --- Multi-objective weighting (DESIGN.md §17) -----------------------

  // Selects how the loop weighs BuildBatch's objectives. Deliberately NOT
  // part of TrainConfig: the config is serialized field-by-field into
  // checkpoints, and the weighting mode only shapes the training
  // trajectory, never the restored inference path. Describe() extras carry
  // it for observability instead.
  void SetLossWeighting(LossWeighting weighting) {
    loss_weighting_ = weighting;
  }
  LossWeighting loss_weighting() const { return loss_weighting_; }

 protected:
  // Shared epoch loop used by Train, TrainMore, and ResumeTraining.
  // `resume` is null for a fresh run.
  TrainStats RunTrainingLoop(const text::BowCorpus& corpus, int epochs,
                             const TrainingState* resume = nullptr);

  std::string name_;
  TrainConfig config_;
  util::Rng rng_;
  Tensor final_beta_;  // cached after training
  bool trained_ = false;
  bool training_ = true;  // current mode (mirrors nn::Module)
  double training_progress_ = 0.0;
  util::RunTelemetry* telemetry_ = nullptr;  // not owned
  EpochEvaluator epoch_evaluator_;
  int checkpoint_every_steps_ = 0;
  CheckpointSink checkpoint_sink_;
  GuardRailOptions guard_rails_;
  bool guard_rails_armed_ = false;
  LossWeighting loss_weighting_ = LossWeighting::kFixed;
};

}  // namespace topicmodel
}  // namespace contratopic

#endif  // CONTRATOPIC_TOPICMODEL_NEURAL_BASE_H_
