// The repo benchmark's measuring program. perfbench/run.py builds it and
// runs it from the root of a checkout:
//
//   perfbench --workload <train-20ng|infer-batch> --seed <n>
//             --seconds <s> --trace <0|1> [--checkpoint <path>]
//             [--out-dir <dir>]
//   perfbench --make-checkpoint <path>
//
// The last line of standard output is the run's result JSON. With
// --trace 0 its metrics are the end-to-end set; with --trace 1 the run also
// records the benchmark's spans, writes them as Chrome trace-event JSON to
// <out-dir>, and its metrics are the per-layer set. The exit code is
// non-zero when any correctness check fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/fingerprint.h"
#include "src/workloads.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--checkpoint <path>] "
               "[--out-dir <dir>]\n       perfbench --make-checkpoint <path>\n",
               why);
  std::exit(2);
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "train-20ng") return MakeTrainWorkload(options);
  if (options.workload == "infer-batch") return MakeInferWorkload(options);
  Usage(("unknown workload '" + options.workload + "'").c_str());
}

void PrintTable(const char* title, const std::map<std::string, Metric>& m) {
  std::printf("== %s ==\n%s", title, MetricTable(m).c_str());
}

// Untraced run: repeated set-ups around the measured phase; end-to-end
// metrics only. The peak RSS starts from the first set-up: what the
// workload's constructor built (infer-batch: the served checkpoint's
// quality) is the benchmark's, not the program's. Half the set-ups run
// after the measured phase, so their median spans the run rather than its
// first seconds, and a slow patch of the host moves it less; the peak RSS
// is read before them.
Outcome RunUntraced(const Options& options, Workload& workload) {
  std::vector<double> setup_s;
  Outcome outcome;
  if (!ResetPeakRss()) {
    std::fprintf(stderr,
                 "perfbench: cannot reset VmHWM; peak_rss_mb includes the "
                 "benchmark's own set-up\n");
  }
  const int repeats = workload.setup_repeats();
  for (int rep = 0; rep < (repeats + 1) / 2; ++rep) {
    setup_s.push_back(workload.SetUp(nullptr));
  }
  workload.Measure(options.seconds, &outcome, nullptr);
  outcome.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (int rep = (repeats + 1) / 2; rep < repeats; ++rep) {
    setup_s.push_back(workload.SetUp(nullptr));
  }
  outcome.Set("setup_s", Median(setup_s), "s");
  PrintTable("end-to-end", outcome.metrics);
  return outcome;
}

// Traced run: the workload measured for the full time with spans recorded
// (so tail percentiles keep their sample counts), bracketed by two untraced
// measurements of half the time each (so warm-up and drift do not land on
// one side of the comparison), then the per-layer probes. Each measured part
// starts from a fresh set-up: a warm result cache would otherwise answer
// the next part's requests. Reports per-layer metrics, including the
// tracing overhead on the workload's pass_ms.
Outcome RunTraced(const Options& options, Workload& workload) {
  SpanLog& log = SpanLog::Get();
  Outcome layers, before, traced, after;
  workload.SetUp(nullptr);
  workload.Measure(options.seconds / 2, &before, nullptr);
  log.Enable(true);
  workload.SetUp(&layers);
  workload.Measure(options.seconds, &traced, &layers);
  log.Enable(false);
  workload.SetUp(nullptr);
  workload.Measure(options.seconds / 2, &after, nullptr);
  PrintTable("end-to-end, untraced before", before.metrics);
  PrintTable("end-to-end, traced", traced.metrics);
  PrintTable("end-to-end, untraced after", after.metrics);
  const double base =
      0.5 * (before.metrics["pass_ms"].value + after.metrics["pass_ms"].value);
  layers.Set("bench.trace_overhead_pct",
             100.0 * (traced.metrics["pass_ms"].value - base) / base, "%");
  log.Enable(true);
  RunLayerProbes(options, workload.probe_context(), &layers);
  log.Enable(false);

  const std::string trace_path = options.out_dir + "/trace-" +
                                 options.workload + "-seed" +
                                 std::to_string(options.seed) + ".json";
  if (log.WriteChromeTrace(trace_path)) {
    std::printf("trace: %s\n", trace_path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: could not write %s\n", trace_path.c_str());
  }
  std::printf("== spans (count, total s, self s) ==\n");
  for (const auto& [name, t] : log.Totals()) {
    std::printf("%-40s %8lld %12.6f %12.6f\n", name.c_str(),
                static_cast<long long>(t.count), t.total_s, t.self_s);
  }
  PrintTable("per-layer", layers.metrics);

  Outcome outcome = layers;
  // The correctness checks and operation counts of every measured part
  // count; their end-to-end metrics do not appear in a traced result.
  for (const Outcome* part : {&before, &traced, &after}) {
    Outcome counts = *part;
    counts.metrics.clear();
    outcome.Merge(counts);
  }
  return outcome;
}

int Main(int argc, char** argv) {
  Options options;
  std::string make_checkpoint;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--checkpoint") {
      options.checkpoint = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--make-checkpoint") {
      make_checkpoint = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!make_checkpoint.empty()) return MakeCheckpoint(make_checkpoint);
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }

  std::unique_ptr<Workload> workload = MakeWorkload(options);
  contratopic::util::ThreadPool::SetGlobalNumThreads(workload->threads());
  std::printf("fingerprint: %s\n",
              FingerprintJson(options.workload, workload->threads()).c_str());
  std::fflush(stdout);

  const Outcome outcome = options.trace ? RunTraced(options, *workload)
                                        : RunUntraced(options, *workload);
  for (const std::string& error : outcome.errors) {
    std::printf("FAILED CHECK: %s\n", error.c_str());
  }
  std::printf("%s\n", ResultJson(outcome).c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
