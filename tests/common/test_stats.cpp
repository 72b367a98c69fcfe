// SPDX-License-Identifier: Apache-2.0
#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mp3d {
namespace {

TEST(Percentile, EmptyIsZero) {
  std::vector<u64> v;
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 0.0);
}

TEST(Percentile, SingleSampleIsItself) {
  std::vector<u64> v{42};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 42.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  std::vector<u64> v{10, 20, 30, 40};  // ranks 0..3
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
  // q = 0.5 -> rank 1.5 -> halfway between 20 and 30.
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
  // q = 0.25 -> rank 0.75 -> 10 + 0.75 * (20 - 10).
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 17.5);
}

TEST(Percentile, ClampsQ) {
  std::vector<u64> v{30, 10, 20};
  EXPECT_DOUBLE_EQ(percentile(v, -1.0), 10.0);  // clamped to q = 0
  EXPECT_DOUBLE_EQ(percentile(v, 2.0), 30.0);   // clamped to q = 1
}

TEST(Percentile, DoesNotMutateTheSamples) {
  // Regression: percentile used to sort the caller's vector in place,
  // silently reordering buffers callers reuse (per-window telemetry
  // gauges compute p50 then p99 from the same window).
  const std::vector<u64> original{30, 10, 20, 50, 40};
  std::vector<u64> v = original;
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 30.0);
  EXPECT_EQ(v, original);
  // p50-then-p99 on one buffer agrees with p99 on a fresh copy.
  std::vector<u64> fresh = original;
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), percentile(fresh, 0.99));
}

TEST(Percentile, P99OnUniformRamp) {
  std::vector<u64> v(100);
  for (u64 i = 0; i < 100; ++i) {
    v[i] = i + 1;  // 1..100
  }
  // rank = 0.99 * 99 = 98.01 -> between 99 and 100.
  EXPECT_NEAR(percentile(v, 0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.5);
}

}  // namespace
}  // namespace mp3d
