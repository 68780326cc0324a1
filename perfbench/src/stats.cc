#include "src/stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

namespace {

// Nearest rank: the smallest rank r (1-based) with r >= q * n.
int NearestRank(int n, double q) {
  return std::max(1, static_cast<int>(std::ceil(q * n)));
}

double AtRank(std::vector<double> samples, int rank) {
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

}  // namespace

int SamplesBeyond(int n, double q) {
  if (n <= 0) return 0;
  return n - std::min(NearestRank(n, q), n);
}

int SamplesBelow(int n, double q) {
  if (n <= 0) return 0;
  return std::min(NearestRank(n, q), n) - 1;
}

std::optional<double> TailPercentile(std::vector<double> samples, double q) {
  const int n = static_cast<int>(samples.size());
  if (q <= 0.0 || q >= 1.0 || SamplesBeyond(n, q) < kMinTailSamples) {
    return std::nullopt;
  }
  return AtRank(std::move(samples), NearestRank(n, q));
}

std::optional<double> LowPercentile(std::vector<double> samples, double q) {
  const int n = static_cast<int>(samples.size());
  if (q <= 0.0 || q >= 1.0 || SamplesBelow(n, q) < kMinTailSamples) {
    return std::nullopt;
  }
  return AtRank(std::move(samples), NearestRank(n, q));
}

uint64_t SeedStream::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SeedStream::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t DeriveSeed(uint64_t seed, std::string_view purpose) {
  uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a over the purpose
  for (char c : purpose) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  SeedStream stream(seed ^ h);
  return stream.Next();
}

std::vector<double> PoissonArrivals(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> arrivals;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return arrivals;
  SeedStream stream(seed);
  double t = 0.0;
  while (true) {
    // Exponential gap; 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - stream.Uniform()) / rate_per_s;
    if (t >= duration_s) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

RequestMix::RequestMix(uint64_t seed, int num_docs, int hot_docs,
                       double hot_fraction)
    : stream_(seed),
      num_docs_(std::max(1, num_docs)),
      hot_docs_(std::clamp(hot_docs, 0, num_docs_ - 1)),
      hot_fraction_(hot_fraction) {}

int RequestMix::Next() {
  if (hot_docs_ > 0 && stream_.Uniform() < hot_fraction_) {
    return static_cast<int>(stream_.Next() % hot_docs_);
  }
  const int doc = hot_docs_ + next_cold_;
  next_cold_ = (next_cold_ + 1) % (num_docs_ - hot_docs_);
  return doc;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

}  // namespace perfbench
