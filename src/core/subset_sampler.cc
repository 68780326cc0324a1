#include "core/subset_sampler.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace contratopic {
namespace core {

using namespace autodiff;  // NOLINT: op-heavy translation unit

SubsetSample SampleTopVWithoutReplacement(const Var& log_weights, int v,
                                          float tau, util::Rng& rng,
                                          bool hard) {
  CHECK_GT(v, 0);
  CHECK_GT(tau, 0.0f);
  CHECK_LE(v, log_weights.cols())
      << "cannot sample more items than are available";

  // Gumbel-perturbed keys r^1 = log w + g.
  Var r = Add(log_weights,
              Var::Constant(Tensor::RandGumbel(log_weights.rows(),
                                               log_weights.cols(), rng)));
  SubsetSample sample;
  sample.steps.reserve(v);
  for (int j = 0; j < v; ++j) {
    Var p = SoftmaxRows(MulScalar(r, 1.0f / tau));
    if (hard) {
      // Straight-through: hard one-hot forward, relaxed backward. Adding
      // (hard - soft) as a constant keeps the graph's gradient identical
      // to the relaxed p while the forward value becomes the hard vector.
      const Tensor& soft = p.value();
      const int64_t cols = soft.cols();
      Tensor hard_minus_soft(soft.rows(), cols);
      for (int64_t row = 0; row < soft.rows(); ++row) {
        const float* s = soft.row(row);
        float* out = hard_minus_soft.row(row);
        int64_t argmax = 0;
        for (int64_t c = 1; c < cols; ++c) {
          if (s[c] > s[argmax]) argmax = c;
        }
        for (int64_t c = 0; c < cols; ++c) {
          out[c] = (c == argmax ? 1.0f : 0.0f) - s[c];
        }
      }
      p = Add(p, Var::Constant(hard_minus_soft));
    }
    sample.steps.push_back(p);
    if (j + 1 < v) {
      // Exclude the sampled item: r += log(1 - p). The epsilon turns the
      // -inf at a fully-sampled coordinate into a large negative number,
      // which the next softmax maps to ~0 probability.
      r = Add(r, Log(AddScalar(Neg(p), 1.0f), 1e-20f));
    }
  }
  sample.v_hot = sample.steps[0];
  for (int j = 1; j < v; ++j) {
    sample.v_hot = Add(sample.v_hot, sample.steps[j]);
  }
  return sample;
}

std::vector<std::vector<int>> HardSampleTopV(const Tensor& log_weights, int v,
                                             util::Rng& rng) {
  CHECK_LE(v, log_weights.cols());
  std::vector<std::vector<int>> out(log_weights.rows());
  const int cols = static_cast<int>(log_weights.cols());
  for (int64_t r = 0; r < log_weights.rows(); ++r) {
    const float* w = log_weights.row(r);
    std::vector<std::pair<float, int>> keys(cols);
    for (int c = 0; c < cols; ++c) {
      keys[c] = {w[c] + static_cast<float>(rng.Gumbel()), c};
    }
    std::partial_sort(
        keys.begin(), keys.begin() + v, keys.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    out[r].reserve(v);
    for (int i = 0; i < v; ++i) out[r].push_back(keys[i].second);
  }
  return out;
}

}  // namespace core
}  // namespace contratopic
