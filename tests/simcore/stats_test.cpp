#include "simcore/stats.hpp"

#include <gtest/gtest.h>

namespace pm2::sim {
namespace {

TEST(SampleSet, MedianOfOddCount) {
  SampleSet s;
  for (double x : {5.0, 1.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(SampleSet, PercentileInterpolates) {
  SampleSet s;
  for (int i = 0; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(25), 25.0, 1e-9);
}

TEST(SampleSet, EmptyPercentileIsZero) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(SampleSet, MeanMatches) {
  SampleSet s;
  s.add(1);
  s.add(2);
  s.add(6);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

}  // namespace
}  // namespace pm2::sim
