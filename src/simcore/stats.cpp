#include "simcore/stats.hpp"

#include <algorithm>

namespace pm2::sim {

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0) return sorted.front();
  if (p >= 100) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

}  // namespace pm2::sim
