#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace bcc {
namespace {

TEST(StreamingStatsTest, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ConfidenceHalfWidth(), 0.0);
}

TEST(StreamingStatsTest, MeanAndVarianceMatchClosedForm) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic data set: 32 / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStatsTest, MergeEqualsSequential) {
  Rng rng(5);
  StreamingStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 100;
    all.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StreamingStatsTest, MergeManyUnequalShardsMatchesSingleStream) {
  // Parallel Welford: splitting a stream into shards of very different sizes
  // and merging in arbitrary order must reproduce the single-stream moments.
  Rng rng(99);
  StreamingStats all;
  StreamingStats shards[4];
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.NextExponential(3.0);
    all.Add(x);
    // Heavily skewed shard assignment: ~1/8, 1/8, 1/4, 1/2.
    shards[i % 8 == 0 ? 0 : i % 8 == 1 ? 1 : i % 4 == 1 ? 2 : 3].Add(x);
  }
  StreamingStats merged;
  for (const StreamingStats& s : {shards[2], shards[0], shards[3], shards[1]}) merged.Merge(s);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_NEAR(merged.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), all.variance(), 1e-6);
  EXPECT_NEAR(merged.sum(), all.sum(), 1e-6);
  EXPECT_DOUBLE_EQ(merged.min(), all.min());
  EXPECT_DOUBLE_EQ(merged.max(), all.max());
}

TEST(StreamingStatsTest, MergeWithEmptySides) {
  StreamingStats a, b;
  a.Add(1.0);
  a.Add(3.0);
  StreamingStats a_copy = a;
  a.Merge(b);  // empty rhs: no change
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.Merge(a_copy);  // empty lhs: adopt rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(NormalQuantileTwoSided(0.95), 1.959964, 1e-4);
  EXPECT_NEAR(NormalQuantileTwoSided(0.99), 2.575829, 1e-4);
  EXPECT_NEAR(NormalQuantileTwoSided(0.90), 1.644854, 1e-4);
}

TEST(StreamingStatsTest, ConfidenceIntervalCoversTrueMean) {
  // With 95% CIs over repeated experiments, the true mean should be covered
  // roughly 95% of the time.
  Rng rng(31);
  int covered = 0;
  const int experiments = 400;
  for (int e = 0; e < experiments; ++e) {
    StreamingStats s;
    for (int i = 0; i < 200; ++i) s.Add(rng.NextExponential(10.0));
    const double hw = s.ConfidenceHalfWidth(0.95);
    if (std::abs(s.mean() - 10.0) <= hw) ++covered;
  }
  EXPECT_GT(covered, experiments * 0.90);
  EXPECT_LT(covered, experiments * 0.99);
}

}  // namespace
}  // namespace bcc
