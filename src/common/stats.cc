#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace deepserve {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  size_t n = count_ + other.count_;
  double delta = other.mean_ - mean_;
  double mean = mean_ + delta * static_cast<double>(other.count_) / static_cast<double>(n);
  m2_ = m2_ + other.m2_ +
        delta * delta * static_cast<double>(count_) * static_cast<double>(other.count_) /
            static_cast<double>(n);
  mean_ = mean;
  count_ = n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void SampleStats::Add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

double SampleStats::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return sum() / static_cast<double>(samples_.size());
}

double SampleStats::sum() const { return std::accumulate(samples_.begin(), samples_.end(), 0.0); }

double SampleStats::min() const {
  return samples_.empty() ? 0.0 : *std::min_element(samples_.begin(), samples_.end());
}

double SampleStats::max() const {
  return samples_.empty() ? 0.0 : *std::max_element(samples_.begin(), samples_.end());
}

void SampleStats::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double SampleStats::Percentile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  DS_CHECK_GE(q, 0.0);
  DS_CHECK_LE(q, 1.0);
  EnsureSorted();
  if (sorted_.size() == 1) {
    return sorted_[0];
  }
  double rank = q * static_cast<double>(sorted_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double SampleStats::FractionBelow(double threshold) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), threshold);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

}  // namespace deepserve
