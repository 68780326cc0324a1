// Per-layer probes of a traced run. Each probe times calls into one
// layer's public functions from here, never from inside the program; the
// end-to-end metric each should move is listed in perfbench/README.md.
// Probes fill only the metrics the workload itself did not measure, so
// every traced run reports the full per-layer set.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "core/contrastive_loss.h"
#include "core/subset_sampler.h"
#include "serve/checkpoint.h"
#include "src/workloads.h"
#include "tensor/autodiff.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

namespace autodiff = contratopic::autodiff;
namespace core = contratopic::core;
namespace serve = contratopic::serve;
using contratopic::util::ThreadPool;

// Budget per microbenchmark: at least this many calls and this much time.
inline constexpr int kMinReps = 20;
inline constexpr double kMinSeconds = 0.2;
// Epoch budget of the probe trainings (ContraTopic vs ETM, 1 vs 2 threads).
inline constexpr int kProbeEpochs = 3;

tensor::Tensor RandomTensor(int64_t rows, int64_t cols, uint64_t seed) {
  SeedStream stream(seed);
  tensor::Tensor t(rows, cols);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(stream.Uniform() * 2.0 - 1.0);
  }
  return t;
}

struct ProbeTraining {
  std::vector<double> epoch_s;
  double loop_s = 0.0;  // RunTrainingLoop wall time (TrainStats)
  tensor::Tensor beta;
  bool ok = false;
};

// Trains a fresh `zoo_name` model for kProbeEpochs at `threads` pool
// threads.
ProbeTraining TrainForProbe(const std::string& zoo_name,
                            const TrainInputs& inputs, int threads) {
  ThreadPool::SetGlobalNumThreads(threads);
  auto model =
      MakeModel(zoo_name, BenchTrainConfig(kProbeEpochs), inputs.embeddings);
  contratopic::util::RunTelemetry telemetry(
      contratopic::util::RunTelemetry::Options{});
  model->SetTelemetry(&telemetry);
  ProbeTraining result;
  topicmodel::TrainStats stats;
  {
    ScopedSpan span("topicmodel.train." + zoo_name + ".t" +
                    std::to_string(threads));
    stats = model->Train(inputs.dataset.data.train);
  }
  model->SetTelemetry(nullptr);
  for (const std::string& line : telemetry.lines()) {
    if (const std::optional<double> s = JsonNumber(line, "seconds")) {
      if (line.find("\"type\":\"epoch\"") != std::string::npos) {
        result.epoch_s.push_back(*s);
      }
    }
  }
  result.loop_s = stats.total_seconds;
  result.ok = !stats.interrupted && std::isfinite(stats.final_loss);
  if (result.ok) result.beta = model->Beta();
  return result;
}

void TrainingProbes(const ProbeContext& context, TrainInputs& inputs,
                    Outcome* layers) {
  // ContraTopic at one thread: the per-step stage split (unless the
  // workload measured it), the ETM ratio's numerator, and the pool
  // speed-up's base.
  ProbeTraining contra;
  {
    TrainProbe probe;
    contra = TrainForProbe("contratopic", inputs, 1);
    if (!layers->Has("topicmodel.forward_ms")) probe.Report(layers);
  }
  const ProbeTraining etm = TrainForProbe("etm", inputs, 1);
  const ProbeTraining contra_t2 =
      TrainForProbe("contratopic", inputs, 2);
  layers->Check(contra.ok && etm.ok && contra_t2.ok,
                "a probe training stopped early or diverged");
  if (!contra.ok || !etm.ok || !contra_t2.ok) return;
  layers->Set("core.contratopic_over_etm",
              Median(contra.epoch_s) / Median(etm.epoch_s), "ratio");
  layers->Set("util.pool_speedup_t2", contra.loop_s / contra_t2.loop_s,
              "ratio");
  layers->Check(BitwiseEqual(contra.beta, contra_t2.beta),
                "beta after 2-thread training differs from 1-thread beta");
}

void CoreProbes(const ProbeContext& context, const TrainInputs& inputs,
                Outcome* layers) {
  ThreadPool::SetGlobalNumThreads(kTrainThreads);
  const text::BowCorpus& train = inputs.dataset.data.train;
  const auto twin = [&] {
    return MakeModel("contratopic", BenchTrainConfig(kTrainEpochs),
                     inputs.embeddings);
  };
  // Prepare() on fresh twins (it caches its NPMI kernel per model).
  std::vector<double> prepare_s;
  std::unique_ptr<topicmodel::NeuralTopicModel> prepared;
  for (int rep = 0; rep < 3; ++rep) {
    prepared = twin();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("core.prepare");
      prepared->Prepare(train);
    }
    prepare_s.push_back(SecondsSince(t0));
  }
  layers->Set("core.prepare_s", Median(prepare_s), "s");

  // L_con pieces at K x C, C = union of each topic's top candidate words
  // under the trained beta, with the clipped NPMI kernel of the twin.
  const core::ContraTopicOptions options = BenchContraOptions();
  const tensor::Tensor beta = context.trained->Beta();
  std::unordered_set<int> unioned;
  for (int64_t k = 0; k < beta.rows(); ++k) {
    for (int w : beta.TopKIndicesOfRow(k, options.candidate_words)) {
      unioned.insert(w);
    }
  }
  std::vector<int> words(unioned.begin(), unioned.end());
  std::sort(words.begin(), words.end());
  auto* contra = dynamic_cast<core::ContraTopicModel*>(prepared.get());
  layers->Check(contra != nullptr && contra->kernel() != nullptr,
                "twin model has no NPMI kernel");
  if (contra == nullptr || contra->kernel() == nullptr) return;
  tensor::Tensor kernel = contra->kernel()->SubMatrix(words);
  kernel.Apply([](float v) { return v > 0.0f ? v : 0.0f; });
  const autodiff::Var beta_var = autodiff::Var::Leaf(beta, true);
  const autodiff::Var log_weights =
      autodiff::Log(autodiff::SelectColumns(beta_var, words), 1e-20f);
  contratopic::util::Rng rng(DeriveSeed(context.seed, "gumbel"));
  layers->Set("core.subset_sample_ms", MedianMs([&] {
                ScopedSpan span("core.sample_top_v");
                core::SampleTopVWithoutReplacement(
                    log_weights, options.v, options.tau_gumbel, rng);
              }, kMinReps, kMinSeconds),
              "ms");
  std::vector<double> loss_ms;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(loss_ms.size()) < kMinReps ||
         SecondsSince(start) < kMinSeconds) {
    const core::SubsetSample sample = core::SampleTopVWithoutReplacement(
        log_weights, options.v, options.tau_gumbel, rng);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("core.topic_contrastive_loss");
      const autodiff::Var loss = core::TopicContrastiveLoss(
          sample.steps, kernel, core::ContrastVariant::kFull,
          options.tau_contrast);
      autodiff::Backward(loss);
    }
    loss_ms.push_back(SecondsSince(t0) * 1e3);
    autodiff::ClearGraphGrads(log_weights);
  }
  layers->Set("core.contrastive_loss_ms", Median(loss_ms), "ms");
  layers->Set("tensor.softmax_rows_ms", MedianMs([&] {
                ScopedSpan span("tensor.softmax_rows");
                tensor::SoftmaxRows(beta);
              }, kMinReps, kMinSeconds),
              "ms");
}

void ServingProbes(const ProbeContext& context, const Options& options,
                   Outcome* layers) {
  ThreadPool::SetGlobalNumThreads(kServeThreads);
  topicmodel::NeuralTopicModel& model = *context.trained;
  const text::BowCorpus& test = context.dataset->data.test;
  const int64_t vocab = test.vocab_size();
  const int64_t hidden = model.config().encoder_hidden;

  // Dense kernels at the encoder's first-layer shape (V x hidden).
  const tensor::Tensor weight = RandomTensor(vocab, hidden, 1);
  const tensor::Tensor x1 = RandomTensor(1, vocab, 2);
  const tensor::Tensor x256 = RandomTensor(256, vocab, 3);
  layers->Set("tensor.transpose_ms", MedianMs([&] {
                ScopedSpan span("tensor.transposed");
                tensor::Transposed(weight);
              }, kMinReps, kMinSeconds),
              "ms");
  layers->Set("tensor.matmul_b1_ms", MedianMs([&] {
                ScopedSpan span("tensor.matmul_b1");
                tensor::MatMulNew(x1, false, weight, false);
              }, kMinReps, kMinSeconds),
              "ms");
  layers->Set("tensor.matmul_b256_ms", MedianMs([&] {
                ScopedSpan span("tensor.matmul_b256");
                tensor::MatMulNew(x256, false, weight, false);
              }, kMinReps, kMinSeconds),
              "ms");

  std::vector<int> first256;
  for (int i = 0; i < std::min(256, test.num_docs()); ++i) {
    first256.push_back(i);
  }
  const tensor::Tensor batch256 = test.NormalizedBatch(first256);
  const tensor::Tensor batch32 =
      test.NormalizedBatch({first256.begin(), first256.begin() + 32});
  const tensor::Tensor batch1 = test.NormalizedBatch({0});
  layers->Set("text.normalized_batch_ms", MedianMs([&] {
                ScopedSpan span("text.normalized_batch");
                test.NormalizedBatch(first256);
              }, kMinReps, kMinSeconds),
              "ms");
  // Model batches run where the program runs them: InferTheta's chunks and
  // the engine's batches execute on a pool worker, where nested ParallelFor
  // calls run inline.
  const auto batch_ms = [&](const tensor::Tensor& batch, const char* span) {
    double ms = 0.0;
    ThreadPool::Global().Schedule([&] {
      ms = MedianMs([&] {
        ScopedSpan s(span);
        model.InferThetaBatch(batch);
      }, kMinReps, kMinSeconds);
    });
    ThreadPool::Global().Wait();
    return ms;
  };
  layers->Set("topicmodel.infer_theta_batch_ms",
              batch_ms(batch256, "topicmodel.infer_theta_batch256"), "ms");
  layers->Set("serve.model_b1_ms",
              batch_ms(batch1, "topicmodel.infer_theta_batch1"), "ms");
  layers->Set("serve.model_b32_ms",
              batch_ms(batch32, "topicmodel.infer_theta_batch32"), "ms");
  layers->Set("util.parallel_for_us", 1e3 * MedianMs([&] {
                ThreadPool::Global().ParallelFor(
                    0, 2, [](int64_t, int64_t) {}, /*grain=*/1);
              }, 200, kMinSeconds),
              "us");

  // Whole-corpus inference at each serving precision.
  const auto docs_per_s = [&](tensor::ServePrecision precision) {
    tensor::ScopedServePrecision scoped(precision);
    const double ms = MedianMs([&] {
      ScopedSpan span(std::string("topicmodel.infer_theta.") +
                      tensor::ServePrecisionName(precision));
      model.InferTheta(test);
    }, 5, kMinSeconds);
    return test.num_docs() / (ms * 1e-3);
  };
  layers->Set("tensor.fp32_docs_per_s",
              docs_per_s(tensor::ServePrecision::kFp32), "1/s");
  layers->Set("tensor.bf16_docs_per_s",
              docs_per_s(tensor::ServePrecision::kBf16), "1/s");
  layers->Set("tensor.int8_docs_per_s",
              docs_per_s(tensor::ServePrecision::kInt8), "1/s");

  // Checkpoint read and restore.
  std::string path = context.checkpoint;
  if (path.empty()) {
    path = options.out_dir + "/probe-model.ckpt";
    const contratopic::util::Status status = serve::SaveCheckpoint(
        model, context.dataset->data.train.vocab(), path);
    layers->Check(status.ok(), "writing the probe checkpoint failed");
    if (!status.ok()) return;
  }
  contratopic::util::StatusOr<serve::Checkpoint> checkpoint =
      serve::ReadCheckpoint(path);
  layers->Check(checkpoint.ok(), "reading the checkpoint failed");
  if (!checkpoint.ok()) return;
  layers->Set("serve.read_checkpoint_ms", MedianMs([&] {
                ScopedSpan span("serve.read_checkpoint");
                serve::ReadCheckpoint(path);
              }, 5, kMinSeconds),
              "ms");
  layers->Set("serve.restore_ms", MedianMs([&] {
                ScopedSpan span("serve.restore_model");
                serve::RestoreModel(*checkpoint);
              }, 5, kMinSeconds),
              "ms");

  // One closed-loop client, cache off: the engine's own per-request cost.
  serve::InferenceEngine::Options engine_options;
  engine_options.cache_capacity = 0;
  auto engine =
      serve::InferenceEngine::FromCheckpoint(*checkpoint, engine_options);
  layers->Check(engine.ok(), "building the probe engine failed");
  if (!engine.ok()) return;
  std::vector<double> sync_ms;
  const int requests = std::min(test.num_docs(), 400);
  for (int i = 0; i < requests; ++i) {
    const serve::InferenceEngine::BowDoc doc = ToBowDoc(test.doc(i));
    const Clock::time_point t0 = Clock::now();
    const serve::InferenceEngine::ThetaResult result = [&] {
      ScopedSpan span("serve.infer_theta_sync", i);
      return (*engine)->InferTheta(doc);
    }();
    sync_ms.push_back(SecondsSince(t0) * 1e3);
    layers->Check(result.ok(), "a synchronous probe request failed");
  }
  const double sync_p50 = Median(sync_ms);
  layers->Set("serve.sync_p50_ms", sync_p50, "ms");
  layers->Set("serve.overhead_ms",
              sync_p50 - layers->metrics["serve.model_b1_ms"].value, "ms");

  // A serving session on the same checkpoint: phase 1 long enough for ~2400
  // arrivals (p99 needs 1000) in four latency windows, phase 2 four full
  // rate windows.
  auto session_engine = serve::InferenceEngine::FromCheckpoint(
      *checkpoint, serve::InferenceEngine::Options());
  layers->Check(session_engine.ok(), "building the session engine failed");
  if (!session_engine.ok()) return;
  const text::BowCorpus docs = RequestCorpus(*context.dataset, context.seed);
  RunServeSession(**session_engine, docs, OfflineTheta(model, docs),
                  context.seed, 8.0, 4.0, layers);
}

}  // namespace

void RunLayerProbes(const Options& options, ProbeContext context,
                    Outcome* layers) {
  ScopedSpan span("bench.layer_probes");
  std::unique_ptr<TrainInputs> own_inputs;
  if (context.inputs == nullptr) {
    ThreadPool::SetGlobalNumThreads(kTrainThreads);
    own_inputs = std::make_unique<TrainInputs>(PrepareTrainInputs());
    context.inputs = own_inputs.get();
    layers->Set("text.generate_s",
                own_inputs->dataset.generate_s + own_inputs->reference_s, "s");
    layers->Set("embed.train_s", own_inputs->embed_s, "s");
    layers->Set("eval.npmi_matrix_s", own_inputs->npmi_s, "s");
  }
  if (context.dataset == nullptr) context.dataset = &context.inputs->dataset;
  TrainingProbes(context, *context.inputs, layers);
  CoreProbes(context, *context.inputs, layers);
  ServingProbes(context, options, layers);
}

}  // namespace perfbench
