#include "src/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/stats.h"
#include "util/telemetry.h"

namespace perfbench {

using contratopic::util::JsonObject;

void Outcome::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  // A check repeated per pass or per request is reported once.
  if (std::find(errors.begin(), errors.end(), what) != errors.end()) return;
  errors.push_back(what);
  std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
               what.c_str());
}

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit) {
  Check(ValidMetricName(name), "metric name '" + name + "' is not valid");
  Check(std::isfinite(value), "metric " + name + " is not finite");
  metrics[name] = Metric{value, unit};
}

void Outcome::Merge(const Outcome& other) {
  correct = correct && other.correct;
  attempted += other.attempted;
  failed += other.failed;
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  for (const auto& [name, metric] : other.metrics) metrics[name] = metric;
}

std::string ResultJson(const Outcome& outcome) {
  JsonObject metrics;
  for (const auto& [name, metric] : outcome.metrics) {
    metrics.PutRaw(name, JsonObject()
                             .Put("value", metric.value)
                             .Put("unit", metric.unit)
                             .Build());
  }
  return JsonObject()
      .Put("correct", outcome.correct)
      .Put("attempted", outcome.attempted)
      .Put("failed", outcome.failed)
      .PutRaw("metrics", metrics.Build())
      .Build();
}

std::string MetricTable(const std::map<std::string, Metric>& metrics) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-11s %-32s %16s  %s\n", "layer", "metric",
                "value", "unit");
  out += buf;
  for (const auto& [name, metric] : metrics) {
    const size_t dot = name.find('.');
    const std::string layer =
        dot == std::string::npos ? "-" : name.substr(0, dot);
    std::snprintf(buf, sizeof(buf), "%-11s %-32s %16.6g  %s\n", layer.c_str(),
                  name.c_str(), metric.value, metric.unit.c_str());
    out += buf;
  }
  return out;
}

}  // namespace perfbench
