// train-20ng: ContraTopic (ETM backbone) training on the 20ng-sim harness
// preset, one pool thread, a fixed epoch budget per Train() call. Fresh
// models are trained back to back, one per 10 s of the run's time (a
// training takes about 8.5 s on a 4-vCPU Xeon host); each is seeded
// identically, so their betas must agree bit for bit.

#include <algorithm>
#include <cmath>

#include "src/workloads.h"
#include "util/telemetry.h"

namespace perfbench {
namespace {

class TrainWorkload : public Workload {
 public:
  explicit TrainWorkload(const Options& options) : options_(options) {}

  int threads() const override { return kTrainThreads; }
  // Set-up takes under a second; the median of several damps the host's
  // bursts.
  int setup_repeats() const override { return 9; }

  double SetUp(Outcome* layers) override {
    // The models point into the inputs this set-up replaces.
    model_.reset();
    trained_.reset();
    const Clock::time_point start = Clock::now();
    ScopedSpan span("bench.setup");
    inputs_ = std::make_unique<TrainInputs>(PrepareTrainInputs());
    model_ = NewModel();
    const double seconds = SecondsSince(start);
    if (layers != nullptr) {
      layers->Set("text.generate_s",
                  inputs_->dataset.generate_s + inputs_->reference_s, "s");
      layers->Set("embed.train_s", inputs_->embed_s, "s");
      layers->Set("eval.npmi_matrix_s", inputs_->npmi_s, "s");
    }
    return seconds;
  }

  void Measure(double seconds, Outcome* out, Outcome* layers) override {
    const text::BowCorpus& train = inputs_->dataset.data.train;
    std::optional<TrainProbe> probe;
    if (layers != nullptr) probe.emplace();
    std::vector<double> epoch_ms;
    double train_s = 0.0;
    int64_t docs_epochs = 0;
    for (int i = 0; i < TrainingsFor(seconds); ++i) {
      if (model_ == nullptr) {
        trained_.reset();  // one model alive at a time: steady peak RSS
        model_ = NewModel();
      }
      contratopic::util::RunTelemetry telemetry(
          contratopic::util::RunTelemetry::Options{});
      model_->SetTelemetry(&telemetry);
      const Clock::time_point t0 = Clock::now();
      topicmodel::TrainStats stats;
      {
        ScopedSpan span("topicmodel.train");
        stats = model_->Train(train);
      }
      train_s += SecondsSince(t0);
      model_->SetTelemetry(nullptr);
      out->Check(!stats.interrupted,
                 "training stopped early: " + stats.status.ToString());
      out->Check(std::isfinite(stats.final_loss), "final loss is not finite");
      for (const std::string& line : telemetry.lines()) {
        if (line.find("\"type\":\"epoch\"") == std::string::npos) continue;
        const std::optional<double> loss = JsonNumber(line, "loss");
        const std::optional<double> epoch_s = JsonNumber(line, "seconds");
        ++out->attempted;
        if (!loss || !std::isfinite(*loss)) ++out->failed;
        out->Check(loss && std::isfinite(*loss), "epoch loss is not finite");
        if (epoch_s) epoch_ms.push_back(*epoch_s * 1e3);
      }
      docs_epochs += static_cast<int64_t>(train.num_docs()) * stats.epochs;
      tensor::Tensor beta = model_->Beta();
      out->Check(AllFinite(beta), "beta is not finite");
      if (beta_.numel() == 0) {
        beta_ = std::move(beta);
      } else {
        out->Check(BitwiseEqual(beta, beta_),
                   "identically seeded trainings disagree on beta");
      }
      trained_ = std::move(model_);
    }

    out->Check(!epoch_ms.empty(), "no epoch records");
    out->Set("pass_ms", Median(epoch_ms), "ms");
    out->Set("docs_per_s", static_cast<double>(docs_epochs) / train_s, "1/s");
    const Quality quality = QualityOf(beta_, *inputs_->test_npmi);
    out->Set("npmi", quality.npmi, "npmi");
    out->Set("diversity", quality.diversity, "ratio");
    if (probe) probe->Report(layers);
  }

  ProbeContext probe_context() override {
    ProbeContext context;
    context.seed = options_.seed;
    context.inputs = inputs_.get();
    context.dataset = &inputs_->dataset;
    context.trained = trained_.get();
    return context;
  }

 private:
  // A fixed number of trainings per run length, not "as many as fit": the
  // work, and with it the peak RSS, must not depend on the host's speed.
  static int TrainingsFor(double seconds) {
    return std::max(1, static_cast<int>(std::lround(seconds / 10.0)));
  }

  std::unique_ptr<topicmodel::NeuralTopicModel> NewModel() const {
    return MakeModel("contratopic", BenchTrainConfig(kTrainEpochs),
                     inputs_->embeddings);
  }

  const Options options_;
  std::unique_ptr<TrainInputs> inputs_;
  std::unique_ptr<topicmodel::NeuralTopicModel> model_;    // next to train
  std::unique_ptr<topicmodel::NeuralTopicModel> trained_;  // last trained
  tensor::Tensor beta_;  // beta of the first training this run
};

}  // namespace

std::unique_ptr<Workload> MakeTrainWorkload(const Options& options) {
  return std::make_unique<TrainWorkload>(options);
}

}  // namespace perfbench
