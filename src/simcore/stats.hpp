// pm2sim -- sample statistics used by the flow tracer and the benchmark
// harness.
#pragma once

#include <cstddef>
#include <vector>

namespace pm2::sim {

/// Reservoir of raw samples supporting exact percentiles; used where the
/// paper-style "median of many iterations" reporting is wanted.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  void clear() { samples_.clear(); }
  std::size_t count() const { return samples_.size(); }

  /// Percentile of the sorted samples (p in [0,100]), interpolated linearly
  /// between the two ranks around p / 100 * (count - 1).
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double min() const { return percentile(0.0); }
  double max() const { return percentile(100.0); }
  double mean() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace pm2::sim
