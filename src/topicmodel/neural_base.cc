#include "topicmodel/neural_base.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "tensor/arena.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace contratopic {
namespace topicmodel {

namespace {

nn::Mlp::Config EncoderMlpConfig(int64_t vocab_size,
                                 const TrainConfig& config) {
  nn::Mlp::Config mlp;
  mlp.layer_sizes.push_back(vocab_size);
  for (int i = 0; i < std::max(1, config.encoder_layers); ++i) {
    mlp.layer_sizes.push_back(config.encoder_hidden);
  }
  mlp.activation = nn::Activation::kSelu;
  mlp.dropout_rate = config.dropout;
  mlp.batch_norm = config.batch_norm;
  return mlp;
}

}  // namespace

std::vector<double> MultiObjectiveWeights(
    const std::vector<std::vector<Tensor>>& objective_grads) {
  std::vector<double> weights;
  if (objective_grads.empty()) return weights;
  weights.reserve(objective_grads.size());
  double inverse_sum = 0.0;
  for (const auto& grads : objective_grads) {
    // Canonical serial double accumulation (tensor order, then row-major
    // element order) -- the exact discipline nn::ClipGradNorm uses, so the
    // norm is one fixed arithmetic sequence at any thread count/backend.
    double total_sq = 0.0;
    for (const Tensor& g : grads) {
      const float* data = g.data();
      for (int64_t i = 0; i < g.numel(); ++i) {
        total_sq += static_cast<double>(data[i]) * static_cast<double>(data[i]);
      }
    }
    const double inverse = 1.0 / (std::sqrt(total_sq) + 1e-12);
    weights.push_back(inverse);
    inverse_sum += inverse;
  }
  for (double& w : weights) w /= inverse_sum;
  return weights;
}

VaeEncoder::VaeEncoder(int64_t vocab_size, int64_t num_topics,
                       const TrainConfig& config, util::Rng& rng)
    : mlp_(EncoderMlpConfig(vocab_size, config), rng, "encoder"),
      mu_head_(config.encoder_hidden, num_topics, rng, "mu"),
      logvar_head_(config.encoder_hidden, num_topics, rng, "logvar"),
      rng_(&rng) {}

VaeEncoder::Output VaeEncoder::Forward(const Var& x_normalized, bool sample) {
  Var pi = mlp_.Forward(x_normalized);
  Output out;
  out.mu = mu_head_.Forward(pi);
  out.logvar = logvar_head_.Forward(pi);
  if (sample) {
    // theta = softmax(mu + sigma * eps), eps ~ N(0, I).
    Var sigma = autodiff::Exp(autodiff::MulScalar(out.logvar, 0.5f));
    Var eps = Var::Constant(
        Tensor::RandNormal(out.mu.rows(), out.mu.cols(), *rng_));
    out.theta = autodiff::SoftmaxRows(
        autodiff::Add(out.mu, autodiff::Mul(sigma, eps)));
  } else {
    out.theta = autodiff::SoftmaxRows(out.mu);
  }
  return out;
}

std::vector<nn::Parameter> VaeEncoder::Parameters() {
  std::vector<nn::Parameter> params = mlp_.Parameters();
  for (auto& p : mu_head_.Parameters()) params.push_back(p);
  for (auto& p : logvar_head_.Parameters()) params.push_back(p);
  return params;
}

std::vector<nn::NamedTensor> VaeEncoder::Buffers() { return mlp_.Buffers(); }

void VaeEncoder::SetTraining(bool training) {
  Module::SetTraining(training);
  mlp_.SetTraining(training);
  mu_head_.SetTraining(training);
  logvar_head_.SetTraining(training);
}

Var VaeEncoder::KlDivergence(const Output& encoded) {
  // -0.5 * sum(1 + logvar - mu^2 - exp(logvar)).
  Var term = autodiff::Sub(
      autodiff::AddScalar(encoded.logvar, 1.0f),
      autodiff::Add(autodiff::Square(encoded.mu),
                    autodiff::Exp(encoded.logvar)));
  return autodiff::MulScalar(autodiff::SumAll(term), -0.5f);
}

NeuralTopicModel::NeuralTopicModel(std::string name, const TrainConfig& config)
    : name_(std::move(name)), config_(config), rng_(config.seed) {}

TrainStats NeuralTopicModel::Train(const text::BowCorpus& corpus) {
  CHECK(!trained_) << name_ << " was already trained";
  CHECK_GT(corpus.num_docs(), 0);
  Prepare(corpus);
  return RunTrainingLoop(corpus, config_.epochs);
}

TrainStats NeuralTopicModel::TrainMore(const text::BowCorpus& corpus,
                                       int epochs) {
  CHECK(trained_) << name_ << ": call Train() before TrainMore()";
  CHECK_GT(corpus.num_docs(), 0);
  trained_ = false;  // Re-armed by the loop below.
  return RunTrainingLoop(corpus, epochs);
}

TrainStats NeuralTopicModel::ResumeTraining(const text::BowCorpus& corpus,
                                            const TrainingState& state) {
  TrainStats stats;
  stats.interrupted = true;
  if (trained_) {
    stats.status = util::Status::FailedPrecondition(
        name_ + " is already trained; ResumeTraining targets a fresh model");
    return stats;
  }
  if (corpus.num_docs() != state.num_docs) {
    stats.status = util::Status::FailedPrecondition(
        name_ + ": training state was captured on a corpus with " +
        std::to_string(state.num_docs) + " docs, got " +
        std::to_string(corpus.num_docs()));
    return stats;
  }
  if (state.total_epochs <= 0 || state.next_global_step < 0) {
    stats.status = util::Status::InvalidArgument(
        name_ + ": training state has an invalid step budget");
    return stats;
  }
  Prepare(corpus);
  return RunTrainingLoop(corpus, state.total_epochs, &state);
}

TrainStats NeuralTopicModel::RunTrainingLoop(const text::BowCorpus& corpus,
                                             int epochs,
                                             const TrainingState* resume) {
  SetTraining(true);

  // The training arena (DESIGN.md §14): every tensor this thread allocates
  // during the run recycles step-shaped buffers through one pool, so after
  // the first step the hot path barely touches the heap.
  tensor::ScopedBufferPool arena;

  nn::Adam adam(config_.learning_rate);
  text::BatchIterator batches(corpus.num_docs(), config_.batch_size, rng_);
  const int steps_per_epoch = batches.batches_per_epoch();
  const int total_steps = std::max(1, epochs * steps_per_epoch);

  util::MetricsRegistry& metrics = util::MetricsRegistry::Global();
  util::Counter& step_counter = metrics.counter("train.steps");
  util::Counter& epoch_counter = metrics.counter("train.epochs");
  util::Histogram& loss_histogram = metrics.histogram("train.batch_loss");
  util::Counter& rollback_counter = metrics.counter("train.rollbacks");
  util::Counter& ckpt_failure_counter =
      metrics.counter("train.checkpoint_failures");
  util::FaultInjector& faults = util::FaultInjector::Global();

  // Loop state. Every field here is mirrored by TrainingState, so a run
  // resumed from a checkpoint continues the exact arithmetic sequence of
  // the interrupted one (DESIGN.md §11).
  int global_step = 0;
  double epoch_loss = 0.0;
  // std::map keeps component order (hence the telemetry field order)
  // independent of which step reported first.
  std::map<std::string, double> component_sums;
  double last_epoch_loss = 0.0;

  const auto capture = [&]() {
    TrainingState s;
    s.num_docs = corpus.num_docs();
    s.total_epochs = epochs;
    s.next_global_step = global_step;
    s.adam = adam.ExportState(Parameters());
    for (util::Rng* stream : TrainingRngs()) {
      s.rngs.push_back(stream->SaveState());
    }
    s.batch_order = batches.order();
    s.batch_cursor = batches.cursor();
    s.epoch_loss_sum = epoch_loss;
    for (const auto& [cname, sum] : component_sums) {
      s.component_sums.emplace_back(cname, sum);
    }
    s.last_epoch_loss = last_epoch_loss;
    return s;
  };
  // Restores loop state. Order matters: the BatchIterator constructor
  // above consumed shuffle draws from rng_, so the RNG restore must come
  // after construction and the iterator then gets its saved permutation.
  const auto restore = [&](const TrainingState& s) -> util::Status {
    util::Status adam_status = adam.ImportState(s.adam, Parameters());
    if (!adam_status.ok()) return adam_status;
    const std::vector<util::Rng*> streams = TrainingRngs();
    if (s.rngs.size() != streams.size()) {
      return util::Status::FailedPrecondition(
          name_ + ": training state has " + std::to_string(s.rngs.size()) +
          " RNG stream(s) but this model trains from " +
          std::to_string(streams.size()));
    }
    for (size_t i = 0; i < streams.size(); ++i) {
      streams[i]->RestoreState(s.rngs[i]);
    }
    batches.RestoreState(s.batch_order, s.batch_cursor);
    global_step = s.next_global_step;
    epoch_loss = s.epoch_loss_sum;
    component_sums.clear();
    for (const auto& [cname, sum] : s.component_sums) {
      component_sums[cname] = sum;
    }
    last_epoch_loss = s.last_epoch_loss;
    return util::Status::OK();
  };

  TrainStats stats;
  if (resume != nullptr) {
    util::Status restore_status = restore(*resume);
    if (!restore_status.ok()) {
      stats.status = std::move(restore_status);
      stats.interrupted = true;
      SetTraining(false);
      return stats;
    }
  }

  // Rollback target for the numeric guard rails: deep copies of every
  // state tensor plus the matching loop state. Refreshed at every epoch
  // boundary and checkpoint, i.e. a rollback replays at most one epoch.
  std::vector<Tensor> snapshot_tensors;
  TrainingState snapshot_state;
  const auto take_snapshot = [&]() {
    snapshot_state = capture();
    snapshot_tensors.clear();
    for (const auto& t : StateTensors()) {
      snapshot_tensors.push_back(*t.tensor);
    }
  };
  const auto roll_back = [&]() {
    std::vector<nn::NamedTensor> live = StateTensors();
    CHECK_EQ(live.size(), snapshot_tensors.size());
    for (size_t i = 0; i < live.size(); ++i) {
      *live[i].tensor = snapshot_tensors[i];
    }
    // Cannot fail: the snapshot came from this very model.
    CHECK(restore(snapshot_state).ok());
  };
  if (guard_rails_armed_) take_snapshot();

  util::TraceSpan train_span("train");
  int rollbacks = 0;
  double data_seconds = 0.0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  double optimizer_seconds = 0.0;
  std::optional<util::TraceSpan> epoch_span;

  // Early-stop bookkeeping shared by the kill site and the guard rails'
  // budget-exhausted path. The model is NOT marked trained.
  const auto stop_early = [&](util::Status status) {
    LOG(WARNING) << name_ << ": training stopped early: "
                 << status.ToString();
    stats.status = std::move(status);
    stats.interrupted = true;
    stats.rollbacks = rollbacks;
    stats.total_seconds = train_span.ElapsedSeconds();
    stats.epochs = global_step / steps_per_epoch;
    stats.seconds_per_epoch =
        stats.epochs > 0 ? stats.total_seconds / stats.epochs : 0.0;
    stats.final_loss = last_epoch_loss;
    stats.extra_memory_bytes = ExtraMemoryBytes();
    SetTraining(false);
    return stats;
  };
  const auto guard_tripped = [&](const std::string& what) -> bool {
    // Returns true when the budget is exhausted (caller stops); otherwise
    // rolls back and the caller retries from the snapshot.
    if (rollbacks >= guard_rails_.max_rollbacks) return true;
    ++rollbacks;
    rollback_counter.Increment();
    LOG(WARNING) << name_ << ": " << what << " at step " << global_step
                 << "; rolling back to step "
                 << snapshot_state.next_global_step;
    roll_back();
    return false;
  };

  while (global_step < epochs * steps_per_epoch) {
    const int epoch = global_step / steps_per_epoch;
    const int step_in_epoch = global_step % steps_per_epoch;
    // Lazily opened so a mid-epoch resume (or rollback) re-enters the
    // in-flight epoch without double-opening its span.
    if (!epoch_span) epoch_span.emplace("epoch");
    training_progress_ = static_cast<double>(global_step) / total_steps;

    Batch batch;
    {
      util::TraceSpan span("data");
      batch.indices = batches.Next();
      batch.counts = corpus.DenseBatch(batch.indices);
      batch.normalized = corpus.NormalizedBatch(batch.indices);
      batch.corpus = &corpus;
      data_seconds += span.ElapsedSeconds();
    }

    BatchGraph graph;
    {
      util::TraceSpan span("forward");
      graph = BuildBatch(batch);
      forward_seconds += span.ElapsedSeconds();
    }
    CHECK(graph.loss.defined());
    // Models must expose beta; guard against subclass bugs early.
    CHECK(graph.beta.defined())
        << name_ << "::BuildBatch returned undefined beta";
    double batch_loss = graph.loss.value().scalar();
    // Chaos: pretend the forward pass diverged. Checked by the guard
    // rails below exactly like an organic NaN.
    if (faults.ShouldFail("train.loss_corrupt")) {
      batch_loss = std::numeric_limits<double>::quiet_NaN();
    }

    // Guard rail 1: the batch loss, inspected before any state mutates.
    if (guard_rails_armed_) {
      const char* bad = nullptr;
      if (guard_rails_.check_nonfinite && !std::isfinite(batch_loss)) {
        bad = "non-finite batch loss";
      } else if (guard_rails_.loss_spike_factor > 0.0 &&
                 last_epoch_loss > 0.0 &&
                 batch_loss >
                     guard_rails_.loss_spike_factor * last_epoch_loss) {
        bad = "batch loss spike";
      }
      if (bad != nullptr) {
        if (guard_tripped(bad)) {
          return stop_early(util::Status::DataLoss(
              name_ + ": " + bad + " at step " +
              std::to_string(global_step) + " with the rollback budget (" +
              std::to_string(guard_rails_.max_rollbacks) + ") exhausted"));
        }
        continue;
      }
    }

    std::vector<std::pair<std::string, double>> step_components;
    const bool moo_step = loss_weighting_ == LossWeighting::kMoo &&
                          !graph.objectives.empty();
    {
      util::TraceSpan span("backward");
      if (moo_step) {
        // One reverse sweep per objective over the shared graph. Leaf
        // grads are copied out after each sweep and the whole reachable
        // graph is wiped (ClearGraphGrads) so sweeps never contaminate
        // each other through shared intermediate nodes.
        auto params = Parameters();
        std::vector<std::vector<Tensor>> objective_grads;
        objective_grads.reserve(graph.objectives.size());
        for (auto& [oname, objective] : graph.objectives) {
          CHECK(objective.defined())
              << name_ << ": undefined MOO objective " << oname;
          autodiff::Backward(objective);
          std::vector<Tensor> grads;
          grads.reserve(params.size());
          for (auto& p : params) {
            const Tensor& g = p.var.grad();
            grads.push_back(g.numel() > 0
                                ? g
                                : Tensor(p.var.rows(), p.var.cols()));
          }
          objective_grads.push_back(std::move(grads));
          autodiff::ClearGraphGrads(objective);
        }
        const std::vector<double> weights =
            MultiObjectiveWeights(objective_grads);
        for (size_t i = 0; i < params.size(); ++i) {
          Tensor combined(params[i].var.rows(), params[i].var.cols());
          for (size_t k = 0; k < weights.size(); ++k) {
            combined.AddScaledInPlace(objective_grads[k][i],
                                      static_cast<float>(weights[k]));
          }
          params[i].var.node()->grad = std::move(combined);
        }
        for (size_t k = 0; k < weights.size(); ++k) {
          step_components.emplace_back(
              "moo_w_" + graph.objectives[k].first, weights[k]);
        }
      } else {
        autodiff::Backward(graph.loss);
      }
      backward_seconds += span.ElapsedSeconds();
    }
    // Guard rail 2: the pre-clip gradient norm. A non-finite norm skips
    // the Adam step (which would poison the moments), then rolls back.
    bool grad_bad = false;
    {
      util::TraceSpan span("optimizer");
      auto params = Parameters();
      const float grad_norm = nn::ClipGradNorm(params, config_.grad_clip);
      grad_bad = guard_rails_armed_ && guard_rails_.check_nonfinite &&
                 !std::isfinite(grad_norm);
      if (!grad_bad) adam.Step(params);
      for (auto& p : params) p.var.ZeroGrad();
      optimizer_seconds += span.ElapsedSeconds();
    }
    for (const auto& [cname, value] : graph.loss_components) {
      step_components.emplace_back(cname, static_cast<double>(value));
    }

    if (grad_bad) {
      if (guard_tripped("non-finite gradient norm")) {
        return stop_early(util::Status::DataLoss(
            name_ + ": non-finite gradient norm at step " +
            std::to_string(global_step) + " with the rollback budget (" +
            std::to_string(guard_rails_.max_rollbacks) + ") exhausted"));
      }
      continue;
    }

    epoch_loss += batch_loss;
    loss_histogram.Observe(batch_loss);
    step_counter.Increment();
    for (const auto& [cname, value] : step_components) {
      component_sums[cname] += value;
    }
    // The beta this step's loss was computed from: the tape evaluated it
    // eagerly in BuildBatch, so adam.Step() above did not change it.
    final_beta_ = graph.beta.value();
    // Hand the step's tape back to the arena before the epoch-end and
    // checkpoint bookkeeping below allocates.
    graph = BatchGraph();
    ++global_step;

    const bool epoch_end = step_in_epoch == steps_per_epoch - 1;
    if (epoch_end) {
      last_epoch_loss = epoch_loss / steps_per_epoch;
      epoch_counter.Increment();
      if (config_.verbose) {
        LOG(INFO) << name_ << " epoch " << epoch + 1 << "/" << epochs
                  << " loss=" << last_epoch_loss;
      }
      if (telemetry_ != nullptr) {
        util::EpochTelemetry record;
        record.epoch = epoch + 1;
        record.total_epochs = epochs;
        record.loss = last_epoch_loss;
        for (const auto& [cname, sum] : component_sums) {
          record.loss_components.emplace_back(cname, sum / steps_per_epoch);
        }
        if (epoch_evaluator_) {
          util::TraceSpan span("epoch_eval");
          record.metrics = epoch_evaluator_(final_beta_);
        }
        record.seconds = epoch_span->ElapsedSeconds();
        record.stage_seconds = {{"data", data_seconds},
                                {"forward", forward_seconds},
                                {"backward", backward_seconds},
                                {"optimizer", optimizer_seconds}};
        telemetry_->RecordEpoch(record);
      }
      epoch_span.reset();
      epoch_loss = 0.0;
      component_sums.clear();
      data_seconds = forward_seconds = 0.0;
      backward_seconds = optimizer_seconds = 0.0;
    }

    // Auto-checkpoint, then the kill site: a fired "train.kill" stands in
    // for a crash, so the last checkpoint written is exactly what a
    // recovering process finds on disk.
    // The cadence ignores whether a sink is attached: the guard-rail
    // snapshot refreshes at checkpoint steps either way.
    const bool checkpoint_due =
        checkpoint_every_steps_ > 0
            ? global_step % checkpoint_every_steps_ == 0
            : epoch_end;
    if (checkpoint_due && checkpoint_sink_) {
      util::Status ckpt_status = checkpoint_sink_(capture());
      if (!ckpt_status.ok()) {
        ckpt_failure_counter.Increment();
        LOG(WARNING) << name_ << ": auto-checkpoint at step " << global_step
                     << " failed: " << ckpt_status.ToString();
      }
    }
    if (guard_rails_armed_ && (epoch_end || checkpoint_due)) take_snapshot();
    if (faults.ShouldFail("train.kill")) {
      return stop_early(util::Status::Cancelled(
          name_ + ": injected kill after step " +
          std::to_string(global_step)));
    }
  }
  epoch_span.reset();

  SetTraining(false);
  trained_ = true;
  training_progress_ = 1.0;
  stats.rollbacks = rollbacks;
  stats.total_seconds = train_span.ElapsedSeconds();
  stats.epochs = epochs;
  stats.seconds_per_epoch =
      epochs > 0 ? stats.total_seconds / epochs : 0.0;
  stats.final_loss = last_epoch_loss;
  stats.extra_memory_bytes = ExtraMemoryBytes();
  return stats;
}

std::vector<nn::NamedTensor> NeuralTopicModel::StateTensors() {
  std::vector<nn::NamedTensor> state;
  for (auto& p : Parameters()) {
    // The Node outlives the Parameter copy (shared with the model's own
    // Var), so the value pointer is stable.
    state.push_back({p.name, &p.var.node()->value});
  }
  for (auto& b : Buffers()) state.push_back(b);
  std::set<std::string> names;
  for (const auto& t : state) {
    CHECK(names.insert(t.name).second)
        << name_ << ": duplicate state tensor name " << t.name;
  }
  return state;
}

void NeuralTopicModel::RestoreTrainedState(Tensor beta) {
  CHECK_EQ(beta.rows(), config_.num_topics)
      << name_ << ": restored beta has wrong topic count";
  final_beta_ = std::move(beta);
  trained_ = true;
  training_progress_ = 1.0;
  SetTraining(false);
}

Tensor NeuralTopicModel::Beta() const {
  CHECK(trained_) << name_ << " is not trained";
  return final_beta_;
}

Tensor NeuralTopicModel::InferTheta(const text::BowCorpus& corpus) {
  CHECK(trained_) << name_ << " is not trained";
  SetTraining(false);
  Tensor theta(corpus.num_docs(), config_.num_topics);
  // Batches are independent in eval mode (forward passes only read model
  // state: dropout is identity, batch-norm uses running stats) and each
  // writes a disjoint row range of theta. The grid balances the pool: the
  // batch count is rounded up to a multiple of the thread count (capped at
  // one document per batch) and rows are split evenly, no batch larger than
  // batch_size. The grid thus depends on the thread count, but the result
  // does not: every eval-mode forward is row-independent, so a document's
  // theta is the same bits in any batch (DESIGN.md §8).
  const int64_t num_docs = corpus.num_docs();
  const int64_t batch_size = std::max(1, config_.batch_size);
  const int64_t threads = util::ThreadPool::Global().num_threads();
  const int64_t min_batches = (num_docs + batch_size - 1) / batch_size;
  const int64_t num_batches = std::min(
      num_docs, (min_batches + threads - 1) / threads * threads);
  util::ThreadPool::Global().ParallelFor(
      0, num_batches,
      [&](int64_t b_lo, int64_t b_hi) {
        for (int64_t b = b_lo; b < b_hi; ++b) {
          const int begin = static_cast<int>(b * num_docs / num_batches);
          const int end = static_cast<int>((b + 1) * num_docs / num_batches);
          std::vector<int> indices;
          indices.reserve(end - begin);
          for (int i = begin; i < end; ++i) indices.push_back(i);
          Tensor batch_theta = InferThetaBatch(corpus.NormalizedBatch(indices));
          CHECK_EQ(batch_theta.rows(), static_cast<int64_t>(indices.size()));
          CHECK_EQ(batch_theta.cols(), config_.num_topics);
          for (size_t r = 0; r < indices.size(); ++r) {
            std::copy(
                batch_theta.row(static_cast<int64_t>(r)),
                batch_theta.row(static_cast<int64_t>(r)) + config_.num_topics,
                theta.row(indices[r] /* == begin + r */));
          }
        }
      },
      /*grain=*/1);
  return theta;
}

}  // namespace topicmodel
}  // namespace contratopic
