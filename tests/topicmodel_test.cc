#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/model_zoo.h"
#include "tensor/kernels.h"
#include "embed/word_embeddings.h"
#include "eval/metrics.h"
#include "eval/npmi.h"
#include "serve/checkpoint.h"
#include "text/synthetic.h"
#include "topicmodel/lda.h"
#include "topicmodel/neural_base.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace contratopic {
namespace topicmodel {
namespace {

using tensor::Tensor;

// Shared tiny dataset + embeddings for the whole file (built once).
struct SharedFixture {
  text::SyntheticDataset dataset;
  embed::WordEmbeddings embeddings;
  eval::NpmiMatrix test_npmi;

  SharedFixture()
      : dataset(text::GenerateSynthetic(text::Preset20NG(0.15))),
        embeddings(embed::WordEmbeddings::Train(dataset.train, [] {
          embed::EmbeddingConfig c;
          c.dimension = 24;
          return c;
        }())),
        test_npmi(eval::NpmiMatrix::Compute(dataset.test)) {}
};

SharedFixture& Shared() {
  static SharedFixture* fixture = new SharedFixture();
  return *fixture;
}

TrainConfig TinyConfig() {
  TrainConfig config;
  config.num_topics = 8;
  config.epochs = 3;
  config.batch_size = 128;
  config.encoder_hidden = 32;
  config.encoder_layers = 1;
  return config;
}

void ExpectRowsSumToOne(const Tensor& m, float tol = 1e-3f) {
  for (int64_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (int64_t c = 0; c < m.cols(); ++c) {
      EXPECT_GE(m.at(r, c), -1e-6f);
      sum += m.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, tol) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// Parameterized: every model in the zoo trains and produces valid outputs.
// ---------------------------------------------------------------------------

class ModelZooTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelZooTest, TrainsAndProducesValidDistributions) {
  const std::string name = GetParam();
  SharedFixture& shared = Shared();
  auto model =
      core::CreateModel(name, TinyConfig(), shared.embeddings);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->num_topics(), 8);

  const TrainStats stats = model->Train(shared.dataset.train);
  EXPECT_GT(stats.total_seconds, 0.0);

  const Tensor beta = model->Beta();
  EXPECT_EQ(beta.rows(), 8);
  EXPECT_EQ(beta.cols(), shared.dataset.train.vocab_size());
  ExpectRowsSumToOne(beta);
  for (int64_t i = 0; i < beta.numel(); ++i) {
    ASSERT_FALSE(std::isnan(beta.data()[i])) << name << " produced NaN beta";
  }

  const Tensor theta = model->InferTheta(shared.dataset.test);
  EXPECT_EQ(theta.rows(), shared.dataset.test.num_docs());
  EXPECT_EQ(theta.cols(), 8);
  ExpectRowsSumToOne(theta);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelZooTest,
    ::testing::Values("lda", "prodlda", "wlda", "etm", "nstm", "wete", "ntmr",
                      "vtmrl", "clntm", "tsctm", "contratopic", "contratopic-p",
                      "contratopic-n", "contratopic-i", "contratopic-s",
                      "contratopic-wlda", "contratopic-wete"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ModelZooTest, DisplayNames) {
  EXPECT_EQ(core::DisplayName("contratopic"), "ContraTopic");
  EXPECT_EQ(core::DisplayName("ntmr"), "NTM-R");
  EXPECT_EQ(core::DisplayName("contratopic-wlda"), "ContraTopic(WLDA)");
}

TEST(ModelZooTest, PaperLineupHasElevenModels) {
  EXPECT_EQ(core::PaperModelNames().size(), 11u);
  EXPECT_EQ(core::AblationModelNames().size(), 5u);
}

// ---------------------------------------------------------------------------
// Multi-objective (MOO) loss weighting: deterministic inverse-gradient-norm
// weights over the per-objective terms (--loss-weighting=moo).
// ---------------------------------------------------------------------------

TEST(MultiObjectiveWeightsTest, WeightsAreNormalizedAndInverseToNorms) {
  // Objective 0 has gradient norm 3 (a single 3.0 entry), objective 1 has
  // norm 4: w0/w1 must equal 4/3 and the weights must sum to 1.
  std::vector<std::vector<Tensor>> grads(2);
  grads[0].push_back(Tensor(1, 2, {3.0f, 0.0f}));
  grads[0].push_back(Tensor(1, 1, {0.0f}));
  grads[1].push_back(Tensor(1, 2, {0.0f, 4.0f}));
  grads[1].push_back(Tensor(1, 1, {0.0f}));
  const std::vector<double> w = MultiObjectiveWeights(grads);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0] + w[1], 1.0, 1e-12);
  EXPECT_NEAR(w[0] / w[1], 4.0 / 3.0, 1e-6);
}

TEST(MultiObjectiveWeightsTest, DeterministicAcrossRepeatedCalls) {
  util::Rng rng(11);
  std::vector<std::vector<Tensor>> grads(3);
  for (auto& objective : grads) {
    objective.push_back(Tensor::RandNormal(4, 5, rng, 0.0f, 1.0f));
    objective.push_back(Tensor::RandNormal(2, 3, rng, 0.0f, 0.1f));
  }
  const std::vector<double> first = MultiObjectiveWeights(grads);
  const std::vector<double> second = MultiObjectiveWeights(grads);
  ASSERT_EQ(first.size(), 3u);
  for (size_t k = 0; k < first.size(); ++k) {
    EXPECT_EQ(first[k], second[k]) << "objective " << k;  // bitwise
  }
  double sum = 0.0;
  for (double v : first) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(MultiObjectiveWeightsTest, ZeroGradientObjectiveDominates) {
  // An all-zero gradient means the epsilon floor gives that objective the
  // (finite) largest weight; nothing divides by zero.
  std::vector<std::vector<Tensor>> grads(2);
  grads[0].push_back(Tensor(2, 2));  // zeros
  grads[1].push_back(Tensor(2, 2, {1.0f, 1.0f, 1.0f, 1.0f}));
  const std::vector<double> w = MultiObjectiveWeights(grads);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_GT(w[0], w[1]);
  EXPECT_TRUE(std::isfinite(w[0]) && std::isfinite(w[1]));
  EXPECT_NEAR(w[0] + w[1], 1.0, 1e-12);
}

TEST(MultiObjectiveWeightsTest, EmptyInputYieldsNoWeights) {
  EXPECT_TRUE(MultiObjectiveWeights({}).empty());
}

TEST(MooTrainingTest, MooRunDivergesFromFixedButStaysValid) {
  // The weighting mode must actually change the optimization (different
  // beta than fixed-lambda) while keeping every output finite and
  // normalized. ETM populates {recon, kl} objectives.
  SharedFixture& shared = Shared();
  const auto train_with = [&](topicmodel::LossWeighting weighting) {
    auto model = core::CreateModel("etm", TinyConfig(), shared.embeddings);
    auto* neural = dynamic_cast<NeuralTopicModel*>(model.get());
    CHECK(neural != nullptr);
    neural->SetLossWeighting(weighting);
    const TrainStats stats = model->Train(shared.dataset.train);
    CHECK(stats.status.ok()) << stats.status.ToString();
    return model->Beta();
  };
  const Tensor fixed = train_with(topicmodel::LossWeighting::kFixed);
  const Tensor moo = train_with(topicmodel::LossWeighting::kMoo);
  ExpectRowsSumToOne(moo);
  int64_t diffs = 0;
  for (int64_t i = 0; i < fixed.numel(); ++i) {
    ASSERT_FALSE(std::isnan(moo.data()[i]));
    if (fixed.data()[i] != moo.data()[i]) ++diffs;
  }
  EXPECT_GT(diffs, 0) << "moo weighting had no effect on training";
}

// ---------------------------------------------------------------------------
// LDA-specific behaviour.
// ---------------------------------------------------------------------------

TEST(LdaTest, RecoversPlantedClusters) {
  // Two disjoint word clusters; LDA with K=2 must separate them.
  text::Vocabulary vocab;
  for (int w = 0; w < 10; ++w) {
    vocab.AddWord("w" + std::to_string(w));
  }
  std::vector<text::Document> docs;
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    text::Document d;
    const int base = (i % 2) * 5;
    for (int j = 0; j < 5; ++j) {
      d.entries.push_back({base + j, 1 + static_cast<int>(rng.UniformInt(3))});
    }
    docs.push_back(d);
  }
  LdaModel lda(2, 7);
  lda.Train(text::BowCorpus(vocab, docs));
  const Tensor beta = lda.Beta();
  // Each topic's mass concentrates on one cluster.
  for (int k = 0; k < 2; ++k) {
    double first = 0.0, second = 0.0;
    for (int w = 0; w < 5; ++w) first += beta.at(k, w);
    for (int w = 5; w < 10; ++w) second += beta.at(k, w);
    EXPECT_GT(std::max(first, second), 0.9) << "topic " << k << " is mixed";
  }
}

TEST(LdaTest, InferThetaReflectsDocumentContent) {
  text::Vocabulary vocab;
  for (int w = 0; w < 10; ++w) vocab.AddWord("w" + std::to_string(w));
  std::vector<text::Document> docs;
  for (int i = 0; i < 60; ++i) {
    text::Document d;
    const int base = (i % 2) * 5;
    for (int j = 0; j < 5; ++j) d.entries.push_back({base + j, 2});
    docs.push_back(d);
  }
  text::BowCorpus corpus(vocab, docs);
  LdaModel lda(2, 11);
  lda.Train(corpus);
  const Tensor theta = lda.InferTheta(corpus);
  // Documents from different clusters get different dominant topics.
  const int dominant0 = theta.TopKIndicesOfRow(0, 1)[0];
  const int dominant1 = theta.TopKIndicesOfRow(1, 1)[0];
  EXPECT_NE(dominant0, dominant1);
}

// ---------------------------------------------------------------------------
// Learning sanity: trained models beat random beta on coherence.
// ---------------------------------------------------------------------------

TEST(LearningTest, EtmBeatsRandomBetaOnCoherence) {
  SharedFixture& shared = Shared();
  TrainConfig config = TinyConfig();
  config.epochs = 8;
  auto model = core::CreateModel("etm", config, shared.embeddings);
  model->Train(shared.dataset.train);
  const auto trained_coherence = eval::PerTopicCoherence(
      model->Beta(), shared.test_npmi);

  util::Rng rng(17);
  const Tensor random_beta = tensor::SoftmaxRows(Tensor::RandNormal(
      8, shared.dataset.train.vocab_size(), rng));
  const auto random_coherence =
      eval::PerTopicCoherence(random_beta, shared.test_npmi);

  EXPECT_GT(eval::CoherenceAtProportion(trained_coherence, 1.0),
            eval::CoherenceAtProportion(random_coherence, 1.0) + 0.1);
}

TEST(LearningTest, TrainingReducesLoss) {
  SharedFixture& shared = Shared();
  TrainConfig config = TinyConfig();
  config.epochs = 1;
  auto short_model = core::CreateModel("etm", config, shared.embeddings);
  const double loss_short =
      short_model->Train(shared.dataset.train).final_loss;
  config.epochs = 8;
  auto long_model = core::CreateModel("etm", config, shared.embeddings);
  const double loss_long = long_model->Train(shared.dataset.train).final_loss;
  EXPECT_LT(loss_long, loss_short);
}

TEST(NeuralBaseTest, TrainTwiceIsAnError) {
  SharedFixture& shared = Shared();
  auto model = core::CreateModel("etm", TinyConfig(), shared.embeddings);
  model->Train(shared.dataset.train);
  EXPECT_DEATH(model->Train(shared.dataset.train), "already trained");
}

TEST(NeuralBaseTest, BetaBeforeTrainingIsAnError) {
  SharedFixture& shared = Shared();
  auto model = core::CreateModel("etm", TinyConfig(), shared.embeddings);
  EXPECT_DEATH(model->Beta(), "not trained");
}

// ---------------------------------------------------------------------------
// Fault tolerance (DESIGN.md §11): crash recovery and numeric guard rails
// ---------------------------------------------------------------------------

bool TensorsBitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.rows()) * a.cols() *
                         sizeof(float)) == 0;
}

// Train a model, kill it mid-run right after an auto-checkpoint, rebuild
// from the file, resume -- and require the resumed run's beta, theta, and
// final loss to be bitwise-identical to an uninterrupted run's. The
// reference and the killed run train on `num_threads` pool threads; the
// resume runs on `resume_threads` (-1: the same count), so a restart may
// change the degree of parallelism without changing the bits.
void RunCrashRecovery(int num_threads, const std::string& model_name,
                      int resume_threads = -1) {
  if (resume_threads < 0) resume_threads = num_threads;
  SharedFixture& shared = Shared();
  const text::Vocabulary& vocab = shared.dataset.train.vocab();
  util::FaultInjector& faults = util::FaultInjector::Global();
  util::ThreadPool::SetGlobalNumThreads(num_threads);
  faults.Reset();

  const TrainConfig config = TinyConfig();
  // Mirrors text::BatchIterator::batches_per_epoch (floor, drop-last).
  const int steps_per_epoch =
      std::max(1, shared.dataset.train.num_docs() / config.batch_size);
  const int total_steps = config.epochs * steps_per_epoch;
  // Checkpoint mid-epoch, then crash two steps after the first one, so
  // the resume replays a partially accumulated epoch.
  const int ckpt_every = std::max(1, steps_per_epoch - 1);
  const int kill_step = ckpt_every + 2;
  ASSERT_LE(kill_step, total_steps) << "fixture too small for a mid-run kill";

  // Straight-through reference.
  auto straight = core::CreateModel(model_name, config, shared.embeddings);
  const TrainStats straight_stats = straight->Train(shared.dataset.train);
  ASSERT_TRUE(straight_stats.status.ok()) << straight_stats.status;

  // Interrupted run: auto-checkpoint to disk, injected kill.
  const std::string path = ::testing::TempDir() + "/crash_recovery_" +
                           model_name + "_" + std::to_string(num_threads) +
                           "_" + std::to_string(resume_threads) + ".ckpt";
  auto interrupted_owner =
      core::CreateModel(model_name, config, shared.embeddings);
  auto* interrupted =
      dynamic_cast<NeuralTopicModel*>(interrupted_owner.get());
  ASSERT_NE(interrupted, nullptr);
  interrupted->SetAutoCheckpoint(
      ckpt_every, [&](const TrainingState& state) {
        return serve::SaveTrainingCheckpoint(*interrupted, vocab, state,
                                             path);
      });
  util::FaultSpec kill;
  kill.every_nth = kill_step;  // the kill site is consulted once per step
  kill.max_fires = 1;
  faults.Arm("train.kill", kill);
  const TrainStats killed = interrupted->Train(shared.dataset.train);
  faults.Reset();
  ASSERT_TRUE(killed.interrupted);
  EXPECT_EQ(killed.status.code(), util::StatusCode::kCancelled);
  EXPECT_FALSE(interrupted->trained());

  // Recovery: read the checkpoint a "fresh process" would find, rebuild
  // the architecture, and resume the remaining steps.
  util::ThreadPool::SetGlobalNumThreads(resume_threads);
  util::StatusOr<serve::Checkpoint> ckpt = serve::ReadCheckpoint(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  ASSERT_TRUE(ckpt->has_training_state);
  // The file on disk is the last checkpoint written at or before the kill
  // step (the kill site runs right after the checkpoint sink).
  EXPECT_GT(ckpt->training_state.next_global_step, 0);
  EXPECT_LE(ckpt->training_state.next_global_step, kill_step);
  EXPECT_EQ(ckpt->training_state.next_global_step % ckpt_every, 0);
  EXPECT_GT(ckpt->training_state.epoch_loss_sum, 0.0)
      << "the resume should start mid-epoch";
  util::StatusOr<std::unique_ptr<NeuralTopicModel>> resumed =
      serve::ResumeModel(*ckpt);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_FALSE((*resumed)->trained());
  const TrainStats resumed_stats =
      (*resumed)->ResumeTraining(shared.dataset.train,
                                 ckpt->training_state);
  ASSERT_TRUE(resumed_stats.status.ok()) << resumed_stats.status;
  EXPECT_TRUE((*resumed)->trained());

  EXPECT_TRUE(TensorsBitwiseEqual((*resumed)->Beta(), straight->Beta()));
  EXPECT_TRUE(TensorsBitwiseEqual((*resumed)->InferTheta(shared.dataset.test),
                                  straight->InferTheta(shared.dataset.test)));
  EXPECT_EQ(resumed_stats.final_loss, straight_stats.final_loss);
  util::ThreadPool::SetGlobalNumThreads(0);
}

TEST(FaultToleranceTest, CrashRecoveryIsBitwiseIdenticalSingleThreaded) {
  RunCrashRecovery(1, "etm");
}

TEST(FaultToleranceTest, CrashRecoveryIsBitwiseIdenticalFourThreads) {
  RunCrashRecovery(4, "etm");
}

// A run killed on one pool size and resumed on another still ends on the
// uninterrupted run's bits, in both directions.
TEST(FaultToleranceTest, CrashAtFourThreadsResumesBitwiseAtOne) {
  for (const char* model : {"etm", "contratopic"}) {
    SCOPED_TRACE(model);
    RunCrashRecovery(4, model, /*resume_threads=*/1);
  }
}

TEST(FaultToleranceTest, CrashAtOneThreadResumesBitwiseAtFour) {
  for (const char* model : {"etm", "contratopic"}) {
    SCOPED_TRACE(model);
    RunCrashRecovery(1, model, /*resume_threads=*/4);
  }
}

// Regression: ContraTopic wraps a backbone that is itself a
// NeuralTopicModel with its own RNG (the encoder noise stream). A
// checkpoint that captured only the wrapper's generator would replay the
// post-resume steps with desynced encoder noise -- beta would still match
// (it is cached from the pre-update forward of the last step, a
// decoder-only function) while theta and the loss silently drift.
// TrainingRngs() must cover every stream (DESIGN.md §11).
TEST(FaultToleranceTest, CrashRecoveryCoversWrappedBackboneRngStreams) {
  RunCrashRecovery(1, "contratopic");
}

TEST(FaultToleranceTest, NanLossRollsBackAndStillMatchesACleanRun) {
  SharedFixture& shared = Shared();
  util::FaultInjector& faults = util::FaultInjector::Global();
  faults.Reset();

  auto clean = core::CreateModel("etm", TinyConfig(), shared.embeddings);
  const TrainStats clean_stats = clean->Train(shared.dataset.train);
  ASSERT_TRUE(clean_stats.status.ok());
  EXPECT_EQ(clean_stats.rollbacks, 0);

  auto guarded_owner =
      core::CreateModel("etm", TinyConfig(), shared.embeddings);
  auto* guarded = dynamic_cast<NeuralTopicModel*>(guarded_owner.get());
  ASSERT_NE(guarded, nullptr);
  guarded->SetGuardRails(GuardRailOptions());
  util::FaultSpec nan_once;
  nan_once.every_nth = 3;  // corrupt the third step's loss, once
  nan_once.max_fires = 1;
  faults.Arm("train.loss_corrupt", nan_once);
  const TrainStats stats = guarded->Train(shared.dataset.train);
  faults.Reset();

  ASSERT_TRUE(stats.status.ok()) << stats.status;
  EXPECT_FALSE(stats.interrupted);
  EXPECT_EQ(stats.rollbacks, 1);
  EXPECT_TRUE(guarded->trained());
  // The rollback replayed the poisoned step from the last good snapshot,
  // so the recovered run is indistinguishable from a clean one.
  EXPECT_TRUE(TensorsBitwiseEqual(guarded->Beta(), clean->Beta()));
  EXPECT_EQ(stats.final_loss, clean_stats.final_loss);
}

TEST(FaultToleranceTest, PersistentNanExhaustsTheRollbackBudget) {
  SharedFixture& shared = Shared();
  util::FaultInjector& faults = util::FaultInjector::Global();
  faults.Reset();

  auto owner = core::CreateModel("etm", TinyConfig(), shared.embeddings);
  auto* model = dynamic_cast<NeuralTopicModel*>(owner.get());
  ASSERT_NE(model, nullptr);
  GuardRailOptions rails;
  rails.max_rollbacks = 3;
  model->SetGuardRails(rails);
  util::FaultSpec always;
  always.every_nth = 1;  // every step's loss is NaN: rollback cannot help
  faults.Arm("train.loss_corrupt", always);
  const TrainStats stats = model->Train(shared.dataset.train);
  faults.Reset();

  ASSERT_FALSE(stats.status.ok());
  EXPECT_EQ(stats.status.code(), util::StatusCode::kDataLoss);
  EXPECT_TRUE(stats.interrupted);
  EXPECT_EQ(stats.rollbacks, 3);
  EXPECT_FALSE(model->trained());
}

TEST(FaultToleranceTest, ResumeRejectsMismatchedState) {
  SharedFixture& shared = Shared();
  // A trained model cannot be resumed...
  auto trained_owner =
      core::CreateModel("etm", TinyConfig(), shared.embeddings);
  auto* trained = dynamic_cast<NeuralTopicModel*>(trained_owner.get());
  ASSERT_NE(trained, nullptr);
  trained->Train(shared.dataset.train);
  const TrainStats on_trained =
      trained->ResumeTraining(shared.dataset.train, TrainingState());
  EXPECT_TRUE(on_trained.interrupted);
  EXPECT_FALSE(on_trained.status.ok());

  // ...and a fresh model rejects state captured against a different
  // corpus (num_docs mismatch) instead of silently diverging.
  auto fresh_owner = core::CreateModel("etm", TinyConfig(), shared.embeddings);
  auto* fresh = dynamic_cast<NeuralTopicModel*>(fresh_owner.get());
  ASSERT_NE(fresh, nullptr);
  TrainingState mismatched;
  mismatched.num_docs = shared.dataset.train.num_docs() + 1;
  mismatched.total_epochs = 3;
  const TrainStats on_mismatch =
      fresh->ResumeTraining(shared.dataset.train, mismatched);
  EXPECT_TRUE(on_mismatch.interrupted);
  EXPECT_FALSE(on_mismatch.status.ok());
  EXPECT_FALSE(fresh->trained());
}

}  // namespace
}  // namespace topicmodel
}  // namespace contratopic
