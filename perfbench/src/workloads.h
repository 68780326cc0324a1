#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

// The three workloads and the per-layer probes of a traced run.

#include <memory>
#include <string>

#include "serve/engine.h"
#include "src/report.h"
#include "src/workload_common.h"

namespace perfbench {

// What the per-layer probes work from once a workload has run.
struct ProbeContext {
  uint64_t seed = 1;
  // Training inputs (dataset, embeddings, test NPMI); probes prepare their
  // own when the workload had no need for them.
  TrainInputs* inputs = nullptr;
  // The dataset alone, for workloads that never built TrainInputs.
  const Dataset* dataset = nullptr;
  // A trained ContraTopic model (train-20ng: the last one it trained;
  // infer-batch: the model restored from its checkpoint).
  topicmodel::NeuralTopicModel* trained = nullptr;
  // A checkpoint of `trained` (empty: the probes write one).
  std::string checkpoint;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Global pool size the workload runs at.
  virtual int threads() const = 0;

  // Set-ups per untraced run; setup_s is their median.
  virtual int setup_repeats() const = 0;

  // One full set-up of the workload; returns its wall time in seconds.
  // Measure() uses the latest set-up; set-ups may also follow Measure().
  // `layers` receives the per-layer metrics the set-up measures (null: not
  // traced).
  virtual double SetUp(Outcome* layers) = 0;

  // Runs the workload for about `seconds`, adding its end-to-end metrics
  // (all but setup_s and peak_rss_mb), correctness checks, and operation
  // counts to `out`, and per-layer metrics to `layers` when non-null.
  virtual void Measure(double seconds, Outcome* out, Outcome* layers) = 0;

  virtual ProbeContext probe_context() = 0;
};

std::unique_ptr<Workload> MakeTrainWorkload(const Options& options);
std::unique_ptr<Workload> MakeInferWorkload(const Options& options);

// A serving session driven against `engine` for the given phase lengths:
// phase 1 an open loop of Poisson arrivals, phase 2 a closed loop holding
// up to a fixed number of requests in flight. Every answer is checked
// bitwise against `reference` (one K-float row per corpus document). Adds
// the requests and their failures, the checks, and the serve.* session
// metrics (serve.p50_ms and serve.p99_ms of phase 1, serve.rate_per_s of
// phase 2, the engine's batch size and cache hit ratio) to `out`.
void RunServeSession(contratopic::serve::InferenceEngine& engine,
                     const text::BowCorpus& docs,
                     const std::vector<std::vector<float>>& reference,
                     uint64_t seed, double phase1_s, double phase2_s,
                     Outcome* out);

// `doc` as an engine request.
contratopic::serve::InferenceEngine::BowDoc ToBowDoc(
    const text::Document& doc);

// One K-float theta row per document of `docs`, from offline
// InferThetaBatch calls on `model` (the serving correctness reference).
std::vector<std::vector<float>> OfflineTheta(
    topicmodel::NeuralTopicModel& model, const text::BowCorpus& docs);

// Fills every per-layer metric `layers` does not yet hold.
void RunLayerProbes(const Options& options, ProbeContext context,
                    Outcome* layers);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
