#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

// What one benchmark run hands back: correctness verdict, operations
// attempted and failed, and named metrics with units.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  std::map<std::string, Metric> metrics;

  // Records a correctness check; a failing one marks the run incorrect.
  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return metrics.count(name) > 0; }
  // Folds `other` in: checks, counts, and metrics (other's win on clash).
  void Merge(const Outcome& other);
};

// The run's result line: {"correct":..,"attempted":..,"failed":..,
// "metrics":{"<name>":{"value":..,"unit":".."},...}}. Values carry all
// their digits ("%.17g"; util::JsonObject).
std::string ResultJson(const Outcome& outcome);

// Human-readable "<layer> <metric> <value> <unit>" table of `metrics`,
// grouped by the layer prefix of each name.
std::string MetricTable(const std::map<std::string, Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
