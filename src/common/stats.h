// Streaming statistics used by the simulator's metrics pipeline.

#ifndef BCC_COMMON_STATS_H_
#define BCC_COMMON_STATS_H_

#include <cstddef>
#include <limits>

namespace bcc {

/// Single-pass mean/variance accumulator (Welford's algorithm).
class StreamingStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Half-width of the normal-approximation confidence interval at the given
  /// confidence level (default 95%). Returns 0 for fewer than two samples.
  double ConfidenceHalfWidth(double confidence = 0.95) const;

  /// Merges another accumulator into this one (parallel Welford).
  void Merge(const StreamingStats& other);

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Two-sided standard-normal quantile for the given confidence level, e.g.
/// 0.95 -> 1.95996. Computed via Acklam's inverse-CDF approximation.
double NormalQuantileTwoSided(double confidence);

}  // namespace bcc

#endif  // BCC_COMMON_STATS_H_
