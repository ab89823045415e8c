// Statistics accumulators used by the metrics layer and the benches.
//
// - OnlineStats: streaming mean / variance / min / max (Welford).
// - SampleStats: stores samples, answers arbitrary percentiles exactly.
#ifndef DEEPSERVE_COMMON_STATS_H_
#define DEEPSERVE_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace deepserve {

class OnlineStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Merges another accumulator into this one (parallel-merge identity).
  void Merge(const OnlineStats& other);

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Exact-percentile sample store. Keeps all samples; fine at simulation scale
// (tens of thousands of requests per experiment).
class SampleStats {
 public:
  void Add(double x);

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double min() const;
  double max() const;
  double sum() const;

  // q in [0, 1]; linear interpolation between closest ranks. Returns 0 when
  // empty so report code needs no special-casing.
  double Percentile(double q) const;
  double p50() const { return Percentile(0.50); }
  double p95() const { return Percentile(0.95); }
  double p99() const { return Percentile(0.99); }

  // Fraction of samples <= threshold (SLO attainment).
  double FractionBelow(double threshold) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace deepserve

#endif  // DEEPSERVE_COMMON_STATS_H_
