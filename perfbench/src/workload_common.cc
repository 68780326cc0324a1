#include "src/workload_common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench/harness.h"
#include "core/model_zoo.h"
#include "eval/metrics.h"
#include "serve/checkpoint.h"
#include "tensor/arena.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace perfbench {

using contratopic::core::ContraTopicOptions;
using contratopic::embed::EmbeddingConfig;
using contratopic::embed::WordEmbeddings;
using contratopic::eval::NpmiMatrix;

topicmodel::TrainConfig BenchTrainConfig(int epochs) {
  topicmodel::TrainConfig config;
  config.num_topics = 20;
  config.epochs = epochs;
  config.encoder_hidden = 96;
  config.encoder_layers = 2;
  config.batch_size = 256;
  return config;
}

ContraTopicOptions BenchContraOptions() {
  ContraTopicOptions options;
  options.lambda = contratopic::bench::LambdaForDataset(kPreset);
  options.v = 10;
  return options;
}

Dataset GenerateDataset() {
  Dataset dataset;
  dataset.config = text::PresetByName(kPreset, kDocScale);
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span("text.generate_synthetic");
    dataset.data = text::GenerateSynthetic(dataset.config);
  }
  dataset.generate_s = SecondsSince(start);
  return dataset;
}

TrainInputs PrepareTrainInputs() {
  TrainInputs inputs;
  inputs.dataset = GenerateDataset();
  Clock::time_point start = Clock::now();
  text::BowCorpus reference;
  {
    ScopedSpan span("text.generate_reference_corpus");
    reference = text::GenerateReferenceCorpus(
        inputs.dataset.config, inputs.dataset.data.train.vocab());
  }
  inputs.reference_s = SecondsSince(start);
  start = Clock::now();
  {
    ScopedSpan span("embed.train");
    EmbeddingConfig config;
    config.dimension = 48;  // as bench::LoadExperiment
    inputs.embeddings = WordEmbeddings::Train(reference, config);
  }
  inputs.embed_s = SecondsSince(start);
  start = Clock::now();
  {
    ScopedSpan span("eval.npmi_matrix");
    inputs.test_npmi = std::make_unique<NpmiMatrix>(
        NpmiMatrix::Compute(inputs.dataset.data.test));
  }
  inputs.npmi_s = SecondsSince(start);
  return inputs;
}

text::BowCorpus RequestCorpus(const Dataset& dataset, uint64_t seed) {
  text::SyntheticConfig config = dataset.config;
  config.seed = DeriveSeed(seed, "request-docs");
  return text::GenerateReferenceCorpus(config, dataset.data.train.vocab());
}

text::BowCorpus ShuffledCorpus(const text::BowCorpus& corpus, uint64_t seed) {
  std::vector<text::Document> docs = corpus.docs();
  SeedStream stream(seed);
  for (size_t i = docs.size(); i > 1; --i) {
    std::swap(docs[i - 1], docs[stream.Next() % i]);
  }
  return text::BowCorpus(corpus.vocab(), std::move(docs),
                         corpus.label_names());
}

void RequireOk(const std::string& workload,
               const contratopic::util::Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s set-up failed: %s\n", workload.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

std::unique_ptr<topicmodel::NeuralTopicModel> MakeModel(
    const std::string& zoo_name, const topicmodel::TrainConfig& config,
    const WordEmbeddings& embeddings) {
  ScopedSpan span("core.create_model");
  std::unique_ptr<topicmodel::TopicModel> model =
      contratopic::core::CreateModel(zoo_name, config, embeddings,
                                     BenchContraOptions());
  auto* neural = dynamic_cast<topicmodel::NeuralTopicModel*>(model.get());
  if (neural == nullptr) {
    RequireOk(zoo_name, contratopic::util::Status::InvalidArgument(
                            "not a neural topic model"));
  }
  model.release();
  return std::unique_ptr<topicmodel::NeuralTopicModel>(neural);
}

Quality QualityOf(const tensor::Tensor& beta, const NpmiMatrix& npmi) {
  ScopedSpan span("eval.quality");
  const std::vector<double> coherence =
      contratopic::eval::PerTopicCoherence(beta, npmi);
  Quality quality;
  for (double c : coherence) quality.npmi += c;
  if (!coherence.empty()) quality.npmi /= static_cast<double>(coherence.size());
  quality.diversity = contratopic::eval::DiversityAtProportion(
      beta, coherence, /*proportion=*/1.0);
  return quality;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak RSS
  clear_refs.flush();
  return clear_refs.good();
}

bool AllFinite(const tensor::Tensor& t) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(t.data()[i])) return false;
  }
  return true;
}

bool BitwiseEqual(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

std::optional<double> JsonNumber(std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  const std::string rest(line.substr(at + needle.size(), 40));
  if (rest.rfind("null", 0) == 0) return std::nan("");
  char* end = nullptr;
  const double value = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str()) return std::nullopt;
  return value;
}

int MakeCheckpoint(const std::string& path) {
  contratopic::util::ThreadPool::SetGlobalNumThreads(kTrainThreads);
  const TrainInputs inputs = PrepareTrainInputs();
  auto model = MakeModel("contratopic", BenchTrainConfig(kTrainEpochs),
                         inputs.embeddings);
  const topicmodel::TrainStats stats = model->Train(inputs.dataset.data.train);
  if (stats.interrupted || !std::isfinite(stats.final_loss)) {
    std::fprintf(stderr, "perfbench: checkpoint training failed: %s\n",
                 stats.status.ToString().c_str());
    return 1;
  }
  const contratopic::util::Status status = contratopic::serve::SaveCheckpoint(
      *model, inputs.dataset.data.train.vocab(), path);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: writing %s failed: %s\n", path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

namespace {

int64_t TrainSteps() {
  return contratopic::util::MetricsRegistry::Global()
      .counter("train.steps")
      .value();
}

}  // namespace

TrainProbe::TrainProbe() {
  contratopic::util::Tracer::Global().Reset();
  allocs_before_ = tensor::GlobalAllocStats().heap_allocs;
  steps_before_ = TrainSteps();
}

void TrainProbe::Report(Outcome* out) const {
  const int64_t steps = TrainSteps() - steps_before_;
  const uint64_t allocs =
      tensor::GlobalAllocStats().heap_allocs - allocs_before_;
  const contratopic::util::TraceAggregate agg =
      contratopic::util::Tracer::Global().Snapshot();
  // Sum each stage over every path ending in it (the loop's spans nest
  // under whatever the caller had open: "train/epoch/forward", ...).
  const auto stage_s = [&agg](const std::string& suffix) {
    double total = 0.0;
    for (const auto& [path, stats] : agg.spans) {
      if (path.size() >= suffix.size() &&
          path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        total += stats.total_seconds;
      }
    }
    return total;
  };
  const double data = stage_s("train/epoch/data");
  const double forward = stage_s("train/epoch/forward");
  const double backward = stage_s("train/epoch/backward");
  const double optimizer = stage_s("train/epoch/optimizer");
  double loop = 0.0;
  for (const auto& [path, stats] : agg.spans) {
    if (path == "train" ||
        (path.size() > 6 && path.compare(path.size() - 6, 6, "/train") == 0)) {
      loop += stats.total_seconds;
    }
  }
  out->Check(steps > 0, "training probe ran no steps");
  if (steps <= 0 || loop <= 0.0) return;
  const double per_step_ms = 1e3 / static_cast<double>(steps);
  out->Set("topicmodel.data_ms", data * per_step_ms, "ms");
  out->Set("topicmodel.forward_ms", forward * per_step_ms, "ms");
  out->Set("topicmodel.backward_ms", backward * per_step_ms, "ms");
  out->Set("nn.optimizer_ms", optimizer * per_step_ms, "ms");
  // The four stages must explain the training loop, or the split misses
  // where the time goes.
  const double coverage = (data + forward + backward + optimizer) / loop;
  out->Set("topicmodel.stage_coverage", coverage, "ratio");
  out->Check(coverage >= 0.9,
             "data+forward+backward+optimizer cover under 90% of Train()");
  out->Set("tensor.heap_allocs_per_step",
           static_cast<double>(allocs) / static_cast<double>(steps), "count");
}

}  // namespace perfbench
