#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

// Sample statistics and seeded input schedules for the benchmark. Nothing
// here touches the program under test: the schedules are generated from
// the benchmark seed with the benchmark's own generator, so a change to the
// library's RNG cannot change what the benchmark feeds it.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench {

// A percentile is only reported when at least this many samples lie
// beyond it; fewer make the tail a handful of outliers.
inline constexpr int kMinTailSamples = 10;

// Median (mean of the two middle values for even counts). Empty -> 0.
double Median(std::vector<double> samples);

// The q-quantile (0 < q < 1) by the nearest-rank rule, or nullopt when
// fewer than kMinTailSamples samples lie strictly above that rank.
std::optional<double> TailPercentile(std::vector<double> samples, double q);

// Samples strictly above the q-quantile's nearest rank.
int SamplesBeyond(int n, double q);

// The lower-tail counterpart of TailPercentile: the q-quantile by the
// nearest-rank rule, or nullopt when fewer than kMinTailSamples samples lie
// strictly below that rank.
std::optional<double> LowPercentile(std::vector<double> samples, double q);

// Samples strictly below the q-quantile's nearest rank.
int SamplesBelow(int n, double q);

// Deterministic 64-bit generator (splitmix64): the benchmark's own source
// of randomness for arrival times and request mixes.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, 1).
  double Uniform();

 private:
  uint64_t state_;
};

// Seed for one named purpose (dataset, model init, request stream, ...),
// so the inputs of different layers do not share a stream.
uint64_t DeriveSeed(uint64_t seed, std::string_view purpose);

// Arrival offsets in seconds of a Poisson process at `rate_per_s`, from 0
// up to (excluding) `duration_s`, in increasing order.
std::vector<double> PoissonArrivals(uint64_t seed, double rate_per_s,
                                    double duration_s);

// Which document each successive request sends: with probability
// `hot_fraction` one of the first `hot_docs` documents (the repeated hot
// set), otherwise the next document of a cycle over the remaining
// [hot_docs, num_docs) range.
class RequestMix {
 public:
  RequestMix(uint64_t seed, int num_docs, int hot_docs, double hot_fraction);
  int Next();

 private:
  SeedStream stream_;
  int num_docs_;
  int hot_docs_;
  double hot_fraction_;
  int next_cold_ = 0;
};

// True when `name` is a valid benchmark metric name: 1..64 characters of
// [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
