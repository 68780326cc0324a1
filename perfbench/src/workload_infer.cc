// infer-batch: repeated full InferTheta passes (internal chunks of 256) over
// the 20ng-sim test split, in an order drawn from the run's seed, with a
// model restored from an fp32 checkpoint and the pool at two threads.
//
// A pass takes 12-20 ms, far shorter than a shared host's busy spells, which
// last seconds and slow a pass by up to 1.5x. The median pass follows how
// much of a run was busy; the 10th percentile is the program's speed when
// the host lets it run, and is what the run reports.

#include <cmath>
#include <cstring>

#include "serve/checkpoint.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

namespace serve = contratopic::serve;

// The quantile of the pass times reported as pass_ms.
constexpr double kPassQuantile = 0.10;

class InferWorkload : public Workload {
 public:
  explicit InferWorkload(const Options& options)
      : options_(options),
        dataset_(GenerateDataset()),
        test_(ShuffledCorpus(dataset_.data.test,
                             DeriveSeed(options.seed, "doc-order"))) {
    // The served checkpoint's quality. The test NPMI matrices it needs
    // (16 MB or more) are dropped here, before the first set-up, so they
    // stay out of peak_rss_mb.
    contratopic::util::StatusOr<serve::Checkpoint> checkpoint =
        serve::ReadCheckpoint(options_.checkpoint);
    RequireOk(options_.workload, checkpoint.status());
    quality_ = QualityOf(
        checkpoint->beta,
        contratopic::eval::NpmiMatrix::Compute(dataset_.data.test));
  }

  int threads() const override { return kServeThreads; }
  // One set-up takes a few ms; the median of many is steady.
  int setup_repeats() const override { return 200; }

  double SetUp(Outcome* layers) override {
    const Clock::time_point start = Clock::now();
    ScopedSpan span("bench.setup");
    model_.reset();
    contratopic::util::StatusOr<serve::Checkpoint> checkpoint = [&] {
      ScopedSpan read("serve.read_checkpoint");
      return serve::ReadCheckpoint(options_.checkpoint);
    }();
    RequireOk(options_.workload, checkpoint.status());
    contratopic::util::StatusOr<std::unique_ptr<topicmodel::NeuralTopicModel>>
        model = [&] {
          ScopedSpan restore("serve.restore_model");
          return serve::RestoreModel(*checkpoint);
        }();
    RequireOk(options_.workload, model.status());
    model_ = std::move(model).value();
    {
      ScopedSpan first("topicmodel.infer_theta_batch");
      first_ = model_->InferThetaBatch(test_.NormalizedBatch({0}));
    }
    return SecondsSince(start);
  }

  void Measure(double seconds, Outcome* out, Outcome* layers) override {
    const text::BowCorpus& test = test_;
    std::vector<double> pass_ms;
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < seconds ||
           SamplesBelow(static_cast<int>(pass_ms.size()), kPassQuantile) <
               kMinTailSamples) {
      const Clock::time_point t0 = Clock::now();
      tensor::Tensor theta;
      {
        ScopedSpan span("topicmodel.infer_theta");
        theta = model_->InferTheta(test);
      }
      pass_ms.push_back(SecondsSince(t0) * 1e3);
      Verify(theta, out);
    }
    const double fast_ms = *LowPercentile(pass_ms, kPassQuantile);
    out->Set("pass_ms", fast_ms, "ms");
    out->Set("docs_per_s", test.num_docs() / (fast_ms * 1e-3), "1/s");
    out->Set("npmi", quality_.npmi, "npmi");
    out->Set("diversity", quality_.diversity, "ratio");
  }

  ProbeContext probe_context() override {
    ProbeContext context;
    context.seed = options_.seed;
    context.dataset = &dataset_;
    context.trained = model_.get();
    context.checkpoint = options_.checkpoint;
    return context;
  }

 private:
  // Rows finite, non-negative, summing to 1 within 1e-4; every pass
  // bitwise-equal to the first; document 0 equal to the set-up's answer.
  void Verify(const tensor::Tensor& theta, Outcome* out) {
    out->attempted += theta.rows();
    int64_t bad_rows = 0;
    for (int64_t r = 0; r < theta.rows(); ++r) {
      double sum = 0.0;
      bool ok = true;
      for (int64_t c = 0; c < theta.cols(); ++c) {
        const float v = theta.row(r)[c];
        ok = ok && std::isfinite(v) && v >= 0.0f;
        sum += v;
      }
      if (!ok || std::fabs(sum - 1.0) > 1e-4) ++bad_rows;
    }
    out->failed += bad_rows;
    out->Check(bad_rows == 0, "theta rows not finite, non-negative, sum 1");
    out->Check(theta.rows() == test_.num_docs(),
               "theta has the wrong number of rows");
    if (first_pass_.numel() == 0) {
      first_pass_ = theta;
      out->Check(std::memcmp(first_pass_.row(0), first_.row(0),
                             sizeof(float) * first_.cols()) == 0,
                 "batched theta of doc 0 differs from its 1-doc answer");
    } else {
      out->Check(BitwiseEqual(theta, first_pass_),
                 "InferTheta passes disagree");
    }
  }

  const Options options_;
  const Dataset dataset_;
  const text::BowCorpus test_;  // the test split in this run's order
  Quality quality_;  // of the served checkpoint
  std::unique_ptr<topicmodel::NeuralTopicModel> model_;
  tensor::Tensor first_;       // set-up's answer for test doc 0
  tensor::Tensor first_pass_;  // the first full pass
};

}  // namespace

std::unique_ptr<Workload> MakeInferWorkload(const Options& options) {
  return std::make_unique<InferWorkload>(options);
}

}  // namespace perfbench
