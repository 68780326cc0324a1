#ifndef PERFBENCH_SRC_WORKLOAD_COMMON_H_
#define PERFBENCH_SRC_WORKLOAD_COMMON_H_

// Inputs and settings shared by the benchmark's workloads. Every input is
// generated from the run's --seed; the program under test only ever sees
// the generated corpora, documents, and checkpoints.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/contratopic.h"
#include "embed/word_embeddings.h"
#include "eval/npmi.h"
#include "src/report.h"
#include "src/spans.h"
#include "src/stats.h"
#include "tensor/tensor.h"
#include "text/synthetic.h"
#include "topicmodel/neural_base.h"

namespace perfbench {

namespace topicmodel = contratopic::topicmodel;
namespace tensor = contratopic::tensor;
namespace text = contratopic::text;

struct Options {
  std::string workload;  // train-20ng | infer-batch
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Serving workloads read their model from here (written beforehand by
  // --make-checkpoint, which trains outside the measured process).
  std::string checkpoint;
  // Directory for the trace files of a traced run.
  std::string out_dir = ".";
};

// The harness preset every workload runs on (1800 train / 1200 test docs).
inline constexpr char kPreset[] = "20ng-sim";
inline constexpr double kDocScale = 0.75;
// Epoch budget of every workload's training (the harness default): shorter
// runs leave coherence near zero and dominated by the seed.
inline constexpr int kTrainEpochs = 16;
// Pool sizes: training stays on one thread (extra threads only add
// scheduler noise there); serving (infer-batch and the traced run's serving
// probes) runs the pool at two.
inline constexpr int kTrainThreads = 1;
inline constexpr int kServeThreads = 2;

// The harness's small-scale ContraTopic configuration (K=20, batch 256,
// 96-unit 2-layer encoder) with its default model seed. Training does not
// take the run's seed: over five initialization seeds, test NPMI after 16
// epochs had an interquartile range of 23% of its median, which would bury
// any change the program makes to the arithmetic.
topicmodel::TrainConfig BenchTrainConfig(int epochs);
// v=10, lambda from bench::LambdaForDataset(kPreset).
contratopic::core::ContraTopicOptions BenchContraOptions();

// The 20ng-sim harness dataset (text layer), timed. The corpus is the
// preset's own (its seed fixes V = 1422 and the splits), so every run works
// on the same problem; the run's seed varies the order of infer-batch's
// documents and the serving session's request documents, mix and schedule.
struct Dataset {
  text::SyntheticConfig config;
  text::SyntheticDataset data;
  double generate_s = 0.0;
};
Dataset GenerateDataset();

// The serving session's request documents: a reference corpus of the
// preset's themes generated from the run's seed, mapped onto the training
// vocabulary.
text::BowCorpus RequestCorpus(const Dataset& dataset, uint64_t seed);

// Everything model construction needs beyond the dataset: the reference-
// corpus embeddings (embed layer) and the test-split NPMI matrix used for
// coherence (eval layer), each timed.
struct TrainInputs {
  Dataset dataset;
  contratopic::embed::WordEmbeddings embeddings;
  std::unique_ptr<contratopic::eval::NpmiMatrix> test_npmi;
  double reference_s = 0.0;  // text: reference corpus for the embeddings
  double embed_s = 0.0;
  double npmi_s = 0.0;
};
TrainInputs PrepareTrainInputs();

// `corpus` with its documents in a seeded random order.
text::BowCorpus ShuffledCorpus(const text::BowCorpus& corpus, uint64_t seed);

// Exits with code 2, printing no result, when a set-up step of `workload`
// failed (a missing or corrupt checkpoint, a model that will not build).
void RequireOk(const std::string& workload,
               const contratopic::util::Status& status);

// A model from the zoo ("contratopic", "etm", ...) as a NeuralTopicModel.
std::unique_ptr<topicmodel::NeuralTopicModel> MakeModel(
    const std::string& zoo_name, const topicmodel::TrainConfig& config,
    const contratopic::embed::WordEmbeddings& embeddings);

// Test-NPMI top-10 coherence and top-25 diversity of `beta`.
struct Quality {
  double npmi = 0.0;
  double diversity = 0.0;
};
Quality QualityOf(const tensor::Tensor& beta,
                  const contratopic::eval::NpmiMatrix& npmi);

// This process's peak resident set size in MB: the kernel's VmHWM, which
// starts afresh at exec and at ResetPeakRss(). (getrusage's ru_maxrss
// carries over the RSS of the process that forked this one, e.g. the
// launching script's, and cannot be reset.) 0 when /proc is unavailable.
double PeakRssMb();

// Returns freed heap memory to the kernel and restarts VmHWM from the
// current RSS, so that PeakRssMb() covers only what runs afterwards, not
// the benchmark's own scaffolding. False when the kernel refuses.
bool ResetPeakRss();

bool AllFinite(const tensor::Tensor& t);
bool BitwiseEqual(const tensor::Tensor& a, const tensor::Tensor& b);

// Numeric field `key` of a flat JSON record line; NaN for null, nullopt
// when absent.
std::optional<double> JsonNumber(std::string_view line, std::string_view key);

// Median wall time in ms of `fn` over at least `min_reps` calls and at
// least `min_seconds` of calls (after one untimed warm-up call).
template <typename Fn>
double MedianMs(Fn&& fn, int min_reps, double min_seconds) {
  fn();
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps ||
         SecondsSince(start) < min_seconds) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(SecondsSince(t0) * 1e3);
  }
  return Median(std::move(samples));
}

// Trains infer-batch's model on one thread and writes it to
// `path`. Returns 0 on success.
int MakeCheckpoint(const std::string& path);

// Shared per-layer metrics of a training run, read from the program's own
// util::Tracer aggregates ("train/epoch/{data,forward,backward,optimizer}")
// and tensor::GlobalAllocStats / the train.steps counter, all taken as
// deltas around the caller's training calls.
class TrainProbe {
 public:
  TrainProbe();  // resets the Tracer and snapshots the counters
  // Adds topicmodel.{data,forward,backward}_ms, nn.optimizer_ms (per-step
  // means), topicmodel.stage_coverage and tensor.heap_allocs_per_step.
  // Fails a check when the stages cover under 90% of the training loop.
  void Report(Outcome* out) const;

 private:
  uint64_t allocs_before_ = 0;
  int64_t steps_before_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_COMMON_H_
