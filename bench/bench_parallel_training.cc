// Parallel-engine bench: trains the same ContraTopic model at 1 thread and
// at --threads=N (default 4), verifies the runs are bitwise identical
// (beta, test theta, final loss — the determinism contract of DESIGN.md
// "Parallelism & determinism"), and reports the wall-clock speedup for
// each pipeline stage (NPMI precompute, training, inference, evaluation).
//
// Doubles as the CI bench-smoke binary (DESIGN.md §9): both legs stream
// run telemetry — per-epoch loss / l_con / NPMI / diversity records and
// per-stage wall time — into one JSONL file ending in a run manifest, and
// the exit code is non-zero when any tier-1 metric is non-finite, when
// the manifest was not written, or when the legs disagree bitwise.
// scripts/check_telemetry.py validates the artifact again from the
// outside.
//
// Chaos mode (DESIGN.md §11): --kill-at-epoch=N trains a third leg with
// epoch-boundary auto-checkpoints, one injected NaN batch (rolled back
// by the guard rails), and an injected "train.kill" inside epoch N;
// --resume reads the checkpoint that interrupted run left behind,
// finishes training, and must end bitwise identical to the
// uninterrupted serial leg. The chaos pass also drives an
// InferenceEngine through injected "serve.batch" faults so the
// fault.injected / train.rollbacks / serve.retries / serve.degraded
// counters land in the manifest (validated by
// check_telemetry.py --mode=faults).
//
// Arena gate (DESIGN.md §14): both thread legs count tensor-buffer heap
// allocations and training-arena pool hits per training step, first
// (warm-up) epoch excluded, and print them with the per-step wall time.
// With two or more epochs the exit code is non-zero unless pool hits are
// >= 10x heap allocations per step on every leg, so the bench fails when
// the arena stops recycling buffers.
//
// Model axis: --model=<zoo name> (default contratopic) points every leg —
// serial/parallel and chaos — at another model from
// core::CreateModel, so the whole bitwise gate battery runs against any
// zoo member (the model-zoo invariance contract, e.g. --model=clntm or
// --model=tsctm). --loss-weighting=moo switches neural models from the
// fixed lambda to deterministic multi-objective gradient-norm weights
// (topicmodel::LossWeighting::kMoo); every determinism gate must hold
// there too.
//
// Usage: bench_parallel_training [--preset=20ng-sim] [--threads=4]
//        [--epochs=...] [--docs=...] [--telemetry=<path>]
//        [--kill-at-epoch=N] [--resume]
//        [--model=<zoo name>] [--loss-weighting=fixed|moo]
// Writes bench_results/parallel_training_<run>.tsv and
// bench_results/telemetry_<run>.jsonl (override with --telemetry=),
// where <run> is the preset plus non-default model/weighting tags.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "tensor/arena.h"
#include "eval/clustering.h"
#include "serve/checkpoint.h"
#include "eval/metrics.h"
#include "eval/npmi.h"
#include "serve/engine.h"
#include "topicmodel/neural_base.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

using namespace contratopic;  // NOLINT

namespace {

// One full pipeline run at a fixed pool size, with per-stage timings.
struct LegResult {
  int threads = 0;
  double npmi_seconds = 0.0;
  double train_seconds = 0.0;
  double infer_seconds = 0.0;
  double eval_seconds = 0.0;
  float final_loss = 0.0f;
  double mean_coherence = 0.0;
  double diversity = 0.0;
  tensor::Tensor beta;
  tensor::Tensor theta;
  // Training-stage allocation accounting (the arena gate). `total_steps`
  // covers the whole run (for step timing); `train_steps` is the alloc
  // window, which excludes the first (pool warm-up) epoch when the run has
  // more than one (`steady_state`).
  int total_steps = 1;
  int train_steps = 1;
  bool steady_state = false;
  uint64_t train_heap_allocs = 0;
  uint64_t train_pool_hits = 0;

  double StepMs() const {
    return train_seconds * 1000.0 / std::max(1, total_steps);
  }
  double HeapAllocsPerStep() const {
    return static_cast<double>(train_heap_allocs) / std::max(1, train_steps);
  }
  double PoolHitsPerStep() const {
    return static_cast<double>(train_pool_hits) / std::max(1, train_steps);
  }
};

// Builds the model under bench (--model=) with the dataset-appropriate
// ContraTopic options (ignored by non-contratopic names) and applies the
// --loss-weighting axis to every neural model.
std::unique_ptr<topicmodel::TopicModel> BuildBenchModel(
    const bench::ExperimentContext& context,
    const bench::BenchConfig& bench_config) {
  core::ContraTopicOptions options;
  options.lambda = bench::LambdaForDataset(context.config.name);
  auto model = core::CreateModel(bench_config.model, bench_config.train,
                                 context.embeddings, options);
  if (auto* neural =
          dynamic_cast<topicmodel::NeuralTopicModel*>(model.get())) {
    neural->SetLossWeighting(bench_config.loss_weighting);
  }
  return model;
}

// The preset plus non-default axis tags; names every result artifact so
// per-model runs don't overwrite the default contratopic tables.
std::string RunTag(const std::string& dataset_name,
                   const bench::BenchConfig& bench_config) {
  std::string tag = dataset_name;
  if (bench_config.model != "contratopic") tag += "_" + bench_config.model;
  if (bench_config.loss_weighting == topicmodel::LossWeighting::kMoo) {
    tag += "_moo";
  }
  return tag;
}

LegResult RunLeg(int threads, const bench::ExperimentContext& context,
                 const bench::BenchConfig& bench_config,
                 util::RunTelemetry* telemetry) {
  util::ThreadPool::SetGlobalNumThreads(threads);
  LegResult leg;
  leg.threads = util::ThreadPool::Global().num_threads();

  telemetry->RecordRunStart(
      util::StrFormat("parallel_training[threads=%d]", leg.threads),
      {{"dataset", context.config.name},
       {"model", bench_config.model},
       {"loss_weighting",
        bench_config.loss_weighting == topicmodel::LossWeighting::kMoo
            ? "moo"
            : "fixed"},
       {"threads", std::to_string(leg.threads)},
       {"epochs", std::to_string(bench_config.train.epochs)},
       {"topics", std::to_string(bench_config.train.num_topics)},
       {"seed", std::to_string(bench_config.train.seed)}});

  {
    util::TraceSpan span("npmi_precompute");
    const eval::NpmiMatrix npmi =
        eval::NpmiMatrix::Compute(context.dataset.train);
    leg.npmi_seconds = span.ElapsedSeconds();
  }
  telemetry->RecordStage("npmi_precompute", leg.npmi_seconds);

  auto model = BuildBenchModel(context, bench_config);
  bench::AttachTelemetry(model.get(), telemetry, context);

  const int steps_per_epoch =
      std::max<int>(1, context.dataset.train.num_docs() /
                           std::max(1, bench_config.train.batch_size));
  leg.total_steps = bench_config.train.epochs * steps_per_epoch;
  leg.train_steps = leg.total_steps;

  // Steady-state allocation accounting for the arena gate: the buffer
  // pool is cold during the first epoch (every acquisition heap-allocates
  // while the arena grows to the step's working set), so when the run has
  // more than one epoch we snapshot the counters at the first epoch
  // boundary — via the auto-checkpoint hook with a sink that saves
  // nothing — and attribute only the remaining epochs to the per-step
  // rate.
  auto* neural = dynamic_cast<topicmodel::NeuralTopicModel*>(model.get());
  tensor::AllocStats allocs_warm;
  int epoch_boundaries_seen = 0;
  if (neural != nullptr) {
    neural->SetAutoCheckpoint(
        /*every_steps=*/0, [&](const topicmodel::TrainingState&) {
          if (++epoch_boundaries_seen == 1) {
            allocs_warm = tensor::GlobalAllocStats();
          }
          return util::Status::OK();
        });
  }

  {
    util::TraceSpan span("train");
    const tensor::AllocStats allocs_before = tensor::GlobalAllocStats();
    const topicmodel::TrainStats stats = model->Train(context.dataset.train);
    const tensor::AllocStats allocs_after = tensor::GlobalAllocStats();
    leg.train_seconds = span.ElapsedSeconds();
    leg.final_loss = stats.final_loss;
    if (epoch_boundaries_seen >= 1 && bench_config.train.epochs > 1) {
      leg.steady_state = true;
      leg.train_steps = (bench_config.train.epochs - 1) * steps_per_epoch;
      leg.train_heap_allocs =
          allocs_after.heap_allocs - allocs_warm.heap_allocs;
      leg.train_pool_hits = allocs_after.pool_hits - allocs_warm.pool_hits;
    } else {
      leg.train_heap_allocs =
          allocs_after.heap_allocs - allocs_before.heap_allocs;
      leg.train_pool_hits = allocs_after.pool_hits - allocs_before.pool_hits;
    }
  }
  leg.beta = model->Beta();
  // With --checkpoint=, freeze the trained model for later cold-start
  // serving (bench_serve --mode=serve). Both legs write it; the file is
  // bitwise-identical either way, by the determinism contract.
  if (!bench_config.checkpoint_path.empty()) {
    const util::Status saved = serve::SaveCheckpoint(
        *model, context.dataset.train.vocab(), bench_config.checkpoint_path);
    CHECK(saved.ok()) << saved;
  }
  telemetry->RecordStage("train", leg.train_seconds,
                         {{"final_loss", leg.final_loss}});

  {
    util::TraceSpan span("infer_theta");
    leg.theta = model->InferTheta(context.dataset.test);
    leg.infer_seconds = span.ElapsedSeconds();
  }
  telemetry->RecordStage("infer_theta", leg.infer_seconds);

  {
    util::TraceSpan span("eval_coherence");
    const std::vector<double> coherence =
        eval::PerTopicCoherence(leg.beta, *context.test_npmi, 10);
    for (double c : coherence) leg.mean_coherence += c;
    if (!coherence.empty()) {
      leg.mean_coherence /= static_cast<double>(coherence.size());
    }
    leg.diversity =
        eval::DiversityAtProportion(leg.beta, coherence, /*proportion=*/1.0);
    leg.eval_seconds = span.ElapsedSeconds();
  }
  telemetry->RecordStage("eval_coherence", leg.eval_seconds,
                         {{"npmi", leg.mean_coherence},
                          {"diversity", leg.diversity}});
  return leg;
}

int64_t CountMismatches(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return -1;
  int64_t mismatches = 0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (a.data()[i] != b.data()[i]) ++mismatches;  // bitwise, not approximate
  }
  return mismatches;
}

// The tier-1 metric gate: a NaN/Inf anywhere in the headline numbers
// means the run is broken even if it "completed".
bool AllFinite(const LegResult& leg) {
  return std::isfinite(leg.final_loss) && std::isfinite(leg.mean_coherence) &&
         std::isfinite(leg.diversity) && std::isfinite(leg.train_seconds);
}

// ---- Chaos phase (--kill-at-epoch= / --resume) ---------------------------

std::string ResumeCheckpointPath(const std::string& dataset_name) {
  return std::string(bench::kResultsDir) + "/resume_" + dataset_name +
         ".ckpt";
}

// Trains the contratopic config with epoch-boundary auto-checkpoints and
// two injected faults: one NaN batch loss (which the guard rails must
// roll back) and a "train.kill" inside epoch `kill_epoch` (which stands
// in for a crash). Returns true when the run was interrupted with a
// resumable checkpoint left on disk.
bool RunKillLeg(int kill_epoch, const bench::ExperimentContext& context,
                const bench::BenchConfig& bench_config,
                util::RunTelemetry* telemetry) {
  const std::string path = ResumeCheckpointPath(context.config.name);
  telemetry->RecordRunStart(
      util::StrFormat("fault_injection[kill_at_epoch=%d]", kill_epoch),
      {{"dataset", context.config.name},
       {"model", bench_config.model},
       {"kill_at_epoch", std::to_string(kill_epoch)},
       {"checkpoint", path}});

  auto model = BuildBenchModel(context, bench_config);
  auto* neural = dynamic_cast<topicmodel::NeuralTopicModel*>(model.get());
  CHECK(neural != nullptr) << "--kill-at-epoch needs a neural --model";
  bench::AttachTelemetry(model.get(), telemetry, context);
  neural->SetGuardRails(topicmodel::GuardRailOptions());
  neural->SetAutoCheckpoint(
      /*every_steps=*/0,  // 0 = at every epoch boundary
      [&](const topicmodel::TrainingState& state) {
        return serve::SaveTrainingCheckpoint(
            *neural, context.dataset.train.vocab(), state, path);
      });

  const int batch = bench_config.train.batch_size;
  // Mirrors text::BatchIterator::batches_per_epoch (floor with drop-last).
  const int steps_per_epoch =
      std::max(1, context.dataset.train.num_docs() / batch);
  util::FaultInjector& faults = util::FaultInjector::Global();
  util::FaultSpec nan_once;
  nan_once.every_nth = 2;  // corrupt the 2nd batch loss, then roll back
  nan_once.max_fires = 1;
  faults.Arm("train.loss_corrupt", nan_once);
  util::FaultSpec kill;
  // The kill site is consulted once per completed step (rolled-back
  // steps are replayed and consulted again, shifting the schedule by the
  // replay length), so this fires inside epoch `kill_epoch` — after at
  // least one epoch-boundary checkpoint for kill_epoch >= 2.
  kill.every_nth = kill_epoch * steps_per_epoch;
  kill.max_fires = 1;
  faults.Arm("train.kill", kill);

  const topicmodel::TrainStats stats = model->Train(context.dataset.train);
  faults.Reset();
  std::printf("chaos: kill leg -> %s (rollbacks=%d)\n",
              stats.status.ToString().c_str(), stats.rollbacks);
  if (!stats.interrupted) {
    std::printf("chaos: ERROR: the injected kill never fired\n");
    return false;
  }
  if (stats.rollbacks < 1) {
    std::printf("chaos: ERROR: the injected NaN was not rolled back\n");
    return false;
  }
  return true;
}

// Reads the interrupted run's checkpoint, finishes training from it, and
// compares the result bitwise against the uninterrupted reference leg —
// the crash-recovery contract of DESIGN.md §11.
bool RunResumeLeg(const bench::ExperimentContext& context,
                  const LegResult& reference, util::RunTelemetry* telemetry) {
  const std::string path = ResumeCheckpointPath(context.config.name);
  telemetry->RecordRunStart(
      "fault_injection[resume]",
      {{"dataset", context.config.name}, {"checkpoint", path}});
  auto checkpoint = serve::ReadCheckpoint(path);
  if (!checkpoint.ok()) {
    std::printf("chaos: ERROR: cannot read %s: %s\n", path.c_str(),
                checkpoint.status().ToString().c_str());
    return false;
  }
  if (!checkpoint->has_training_state) {
    std::printf("chaos: ERROR: %s carries no training state\n", path.c_str());
    return false;
  }
  auto resumed = serve::ResumeModel(*checkpoint);
  if (!resumed.ok()) {
    std::printf("chaos: ERROR: ResumeModel: %s\n",
                resumed.status().ToString().c_str());
    return false;
  }
  topicmodel::NeuralTopicModel& model = **resumed;
  bench::AttachTelemetry(&model, telemetry, context);
  const topicmodel::TrainStats stats =
      model.ResumeTraining(context.dataset.train, checkpoint->training_state);
  if (!stats.status.ok() || stats.interrupted) {
    std::printf("chaos: ERROR: resume failed: %s\n",
                stats.status.ToString().c_str());
    return false;
  }
  const int64_t beta_diff = CountMismatches(model.Beta(), reference.beta);
  const tensor::Tensor theta = model.InferTheta(context.dataset.test);
  const int64_t theta_diff = CountMismatches(theta, reference.theta);
  const bool loss_equal =
      static_cast<float>(stats.final_loss) == reference.final_loss;
  std::printf(
      "chaos: resume vs uninterrupted: beta mismatches=%lld "
      "theta mismatches=%lld loss %s\n",
      static_cast<long long>(beta_diff), static_cast<long long>(theta_diff),
      loss_equal ? "equal" : "DIFFERS");
  return beta_diff == 0 && theta_diff == 0 && loss_equal;
}

// Serving-side chaos: loads the resume checkpoint into an engine whose
// batches fail on an injected schedule, driving the retry and
// circuit-breaker paths so serve.retries / serve.degraded show up in the
// manifest counters. Count-based breaker + deterministic fault schedule
// fix the request-by-request outcome: request 0 exhausts its retries and
// opens the breaker, request 1 is fast-failed degraded, request 2 is the
// probe that recovers (after one more retry), request 3 is healthy.
bool RunServeChaos(const bench::ExperimentContext& context,
                   util::RunTelemetry* telemetry) {
  const std::string path = ResumeCheckpointPath(context.config.name);
  serve::InferenceEngine::Options options;
  options.retry.max_attempts = 2;
  options.retry.base_backoff_ms = 0.5;
  options.retry.max_backoff_ms = 2.0;
  options.breaker.failure_threshold = 1;
  options.breaker.probe_interval = 2;
  options.breaker.success_threshold = 1;
  auto engine = serve::InferenceEngine::Load(path, options);
  if (!engine.ok()) {
    std::printf("chaos: ERROR: engine load: %s\n",
                engine.status().ToString().c_str());
    return false;
  }
  util::FaultInjector& faults = util::FaultInjector::Global();
  util::FaultSpec flaky;
  flaky.every_nth = 1;
  flaky.max_fires = 3;  // request 0 fails twice, the probe fails once
  faults.Arm("serve.batch", flaky);

  const int vocab = static_cast<int>(context.dataset.train.vocab().size());
  util::TraceSpan span("serve_chaos");
  bool sequence_ok = true;
  for (int i = 0; i < 4; ++i) {
    const serve::InferenceEngine::BowDoc doc = {{i % vocab, 1},
                                                {(i + 7) % vocab, 2}};
    const auto theta = (*engine)->InferTheta(doc);
    const bool want_ok = i >= 2;
    if (theta.ok() != want_ok) {
      std::printf("chaos: ERROR: request %d %s but should have %s (%s)\n", i,
                  theta.ok() ? "succeeded" : "failed",
                  want_ok ? "succeeded" : "failed",
                  theta.status().ToString().c_str());
      sequence_ok = false;
    }
  }
  faults.Reset();
  const serve::InferenceEngine::Stats stats = (*engine)->stats();
  const bool healthy =
      (*engine)->health() == serve::InferenceEngine::HealthState::kHealthy;
  telemetry->RecordStage(
      "serve_chaos", span.ElapsedSeconds(),
      {{"retries", static_cast<double>(stats.retries)},
       {"degraded", static_cast<double>(stats.degraded)}});
  std::printf("chaos: serve leg -> retries=%lld degraded=%lld health=%s\n",
              static_cast<long long>(stats.retries),
              static_cast<long long>(stats.degraded),
              healthy ? "healthy" : "NOT RECOVERED");
  return sequence_ok && stats.retries >= 1 && stats.degraded >= 1 && healthy;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  // util::Flags ignores unknown keys, so a stale script passing the
  // removed forked trainer's flags would otherwise run without the gate
  // it asked for.
  for (const char* removed : {"workers", "dist-chaos"}) {
    if (flags.Has(removed)) {
      std::fprintf(stderr,
                   "--%s: the forked multi-process trainer was removed; "
                   "training is data-parallel over --threads only "
                   "(DESIGN.md §13)\n",
                   removed);
      return 2;
    }
  }
  bench::BenchConfig bench_config = bench::ParseBenchConfig(flags);
  // --preset is the canonical spelling (matches text::PresetByName);
  // --dataset stays as an alias for older scripts.
  const std::string dataset_name =
      flags.GetString("preset", flags.GetString("dataset", "20ng-sim"));
  const int parallel_threads = flags.GetInt("threads", 4);
  int kill_epoch = flags.GetInt("kill-at-epoch", 0);
  const bool resume = flags.GetBool("resume", false);
  const unsigned hw = std::thread::hardware_concurrency();

  const bench::ExperimentContext context =
      bench::LoadExperiment(dataset_name, bench_config.doc_scale);
  const std::string run_tag = RunTag(dataset_name, bench_config);
  std::printf(
      "dataset=%s model=%s loss_weighting=%s docs=%d vocab=%d "
      "hardware_threads=%u\n",
      dataset_name.c_str(), bench_config.model.c_str(),
      bench_config.loss_weighting == topicmodel::LossWeighting::kMoo
          ? "moo"
          : "fixed",
      context.config.num_docs,
      static_cast<int>(context.dataset.train.vocab().size()), hw);

  ::mkdir(bench::kResultsDir, 0755);  // the sink opens its file eagerly
  util::RunTelemetry::Options telemetry_options;
  telemetry_options.path =
      bench_config.telemetry_path.empty()
          ? std::string(bench::kResultsDir) + "/telemetry_" + run_tag +
                ".jsonl"
          : bench_config.telemetry_path;
  util::RunTelemetry telemetry(telemetry_options);

  // Scope the manifest's registry/tracer snapshot to this bench run.
  util::MetricsRegistry::Global().Reset();
  util::Tracer::Global().Reset();

  const LegResult serial = RunLeg(1, context, bench_config, &telemetry);
  const LegResult parallel =
      RunLeg(parallel_threads, context, bench_config, &telemetry);

  // Arena gate (DESIGN.md §14): after the warm-up epoch the training
  // arena must serve >= 10x more tensor buffers from its pool than from
  // the heap. A one-epoch run has no steady state, so it only reports.
  bool arena_ok = true;
  for (const LegResult* leg : {&serial, &parallel}) {
    const double hits = leg->PoolHitsPerStep();
    const bool leg_ok = hits > 0.0 && hits >= 10.0 * leg->HeapAllocsPerStep();
    const char* verdict = leg_ok ? "PASS" : "FAIL (arena gate)";
    if (!leg->steady_state) {
      verdict = "not gated (needs --epochs >= 2)";
    } else {
      arena_ok = arena_ok && leg_ok;
    }
    std::printf(
        "arena: tape[%d] %.1f ms/step, %.2f heap allocs/step, %.1f pool "
        "hits/step -> %s\n",
        leg->threads, leg->StepMs(), leg->HeapAllocsPerStep(), hits, verdict);
  }

  // Chaos phase (optional). --kill-at-epoch= interrupts a third leg with
  // injected faults; --resume recovers from the checkpoint it left and
  // demands bitwise identity with the uninterrupted serial leg. --resume
  // alone reuses a checkpoint from a previous invocation — a true
  // cross-process crash recovery; with both flags one process exercises
  // the whole cycle. Runs at the parallel thread count on purpose: the
  // reference leg ran single-threaded, so a bitwise match also re-proves
  // thread-count invariance across the crash boundary.
  bool chaos_ok = true;
  const bool chaos_phase = kill_epoch > 0 || resume;
  if (kill_epoch > 0) {
    const int epochs = bench_config.train.epochs;
    const int clamped = std::max(2, std::min(kill_epoch, epochs));
    if (clamped != kill_epoch) {
      std::printf(
          "chaos: clamping --kill-at-epoch=%d to %d (the kill must land "
          "after the first epoch-boundary checkpoint)\n",
          kill_epoch, clamped);
      kill_epoch = clamped;
    }
    chaos_ok = RunKillLeg(kill_epoch, context, bench_config, &telemetry);
  }
  if (chaos_ok && resume) {
    chaos_ok = RunResumeLeg(context, serial, &telemetry);
  }
  if (chaos_ok && chaos_phase) {
    chaos_ok = RunServeChaos(context, &telemetry);
  }
  util::ThreadPool::SetGlobalNumThreads(0);  // restore hardware default

  // Determinism contract: both legs must agree bitwise.
  const int64_t beta_diff = CountMismatches(serial.beta, parallel.beta);
  const int64_t theta_diff = CountMismatches(serial.theta, parallel.theta);
  const bool loss_equal = serial.final_loss == parallel.final_loss;
  const bool coherence_equal =
      serial.mean_coherence == parallel.mean_coherence;
  const bool identical =
      beta_diff == 0 && theta_diff == 0 && loss_equal && coherence_equal;
  const bool finite = AllFinite(serial) && AllFinite(parallel);

  util::TableWriter table({"Stage", "1 thread (s)",
                           util::StrFormat("%d threads (s)", parallel.threads),
                           "speedup"});
  const auto add_stage = [&](const char* name, double s1, double sn) {
    table.AddRow(name, {s1, sn, sn > 0 ? s1 / sn : 0.0});
  };
  add_stage("npmi_precompute", serial.npmi_seconds, parallel.npmi_seconds);
  add_stage("train", serial.train_seconds, parallel.train_seconds);
  add_stage("infer_theta", serial.infer_seconds, parallel.infer_seconds);
  add_stage("eval_coherence", serial.eval_seconds, parallel.eval_seconds);
  add_stage("total", serial.npmi_seconds + serial.train_seconds +
                         serial.infer_seconds + serial.eval_seconds,
            parallel.npmi_seconds + parallel.train_seconds +
                parallel.infer_seconds + parallel.eval_seconds);
  table.AddRow("bitwise_identical",
               {identical ? 1.0 : 0.0, identical ? 1.0 : 0.0, 1.0});
  bench::EmitTable(
      util::StrFormat("Parallel training engine, 1 vs %d threads on %s",
                      parallel.threads, run_tag.c_str()),
      "parallel_training_" + run_tag, table);

  std::vector<std::pair<std::string, double>> summary = {
      {"threads_serial", static_cast<double>(serial.threads)},
      {"threads_parallel", static_cast<double>(parallel.threads)},
      {"final_loss", serial.final_loss},
      {"npmi", serial.mean_coherence},
      {"diversity", serial.diversity},
      {"beta_mismatches", static_cast<double>(beta_diff)},
      {"theta_mismatches", static_cast<double>(theta_diff)},
      {"bitwise_identical", identical ? 1.0 : 0.0},
      {"metrics_finite", finite ? 1.0 : 0.0}};
  summary.emplace_back("arena_ok", arena_ok ? 1.0 : 0.0);
  summary.emplace_back("heap_allocs_per_step", serial.HeapAllocsPerStep());
  summary.emplace_back("pool_hits_per_step", serial.PoolHitsPerStep());
  if (chaos_phase) {
    summary.emplace_back("chaos_ok", chaos_ok ? 1.0 : 0.0);
    if (resume) {
      summary.emplace_back("resume_bitwise_identical", chaos_ok ? 1.0 : 0.0);
    }
  }
  telemetry.RecordManifest(summary);
  const util::Status telemetry_status = telemetry.Flush();
  const bool telemetry_ok =
      telemetry_status.ok() && telemetry.manifest_written();
  std::printf("[telemetry: %s%s]\n", telemetry_options.path.c_str(),
              telemetry_ok ? "" : " WRITE FAILED");

  std::printf(
      "\ndeterminism: beta mismatches=%lld theta mismatches=%lld "
      "loss %s coherence %s -> %s\n",
      static_cast<long long>(beta_diff), static_cast<long long>(theta_diff),
      loss_equal ? "equal" : "DIFFERS",
      coherence_equal ? "equal" : "DIFFERS",
      identical ? "BITWISE IDENTICAL" : "MISMATCH");
  if (!finite) std::printf("metric gate: NON-FINITE tier-1 metric\n");
  if (chaos_phase) {
    std::printf("chaos phase: %s\n",
                chaos_ok ? "PASS (recovery bitwise identical, serving "
                           "recovered)"
                         : "FAIL");
  }
  std::printf(
      "note: speedup is bounded by the host's %u hardware thread(s); on a "
      "single-core host both thread legs time-slice one core and speedup "
      "~1.\n",
      hw);
  return identical && finite && telemetry_ok && chaos_ok && arena_ok ? 0 : 1;
}
