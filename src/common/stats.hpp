#pragma once
// Online statistics used by the measurement harnesses: running mean/std
// (Welford), fixed-bin histograms for latency distributions (Fig 6), and
// exact percentiles over retained samples for reliability analysis (§6).
//
// Every accumulator is mergeable: `a.merge(b)` equals having fed b's samples
// into `a` after a's own (for SampleSet, in b's insertion order). The
// parallel Monte-Carlo runner (sim/runner.hpp) relies on this to combine
// per-replication accumulators in index order, making merged statistics
// independent of the thread count.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace u5g {

/// Welford running mean / variance / min / max. Numerically stable; O(1) space.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  void add(Nanos t) { add(static_cast<double>(t.count())); }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Population variance (σ² over the observed samples).
  [[nodiscard]] double variance() const { return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  void merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) { *this = o; return; }
    const auto n1 = static_cast<double>(n_), n2 = static_cast<double>(o.n_);
    const double d = o.mean_ - mean_;
    mean_ += d * n2 / (n1 + n2);
    m2_ += o.m2_ + d * d * n1 * n2 / (n1 + n2);
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range values clamp to the
/// edge bins so total mass is preserved. Bin probabilities reproduce the
/// paper's Fig 6 y-axis directly.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), bins_(bins, 0) {}

  void add(double x) {
    ++total_;
    if (x < lo_) { ++bins_.front(); return; }
    if (x >= hi_) { ++bins_.back(); return; }
    const auto i = static_cast<std::size_t>((x - lo_) / width());
    ++bins_[std::min(i, bins_.size() - 1)];
  }

  [[nodiscard]] double width() const { return (hi_ - lo_) / static_cast<double>(bins_.size()); }
  [[nodiscard]] std::size_t bin_count() const { return bins_.size(); }
  [[nodiscard]] std::uint64_t bin(std::size_t i) const { return bins_[i]; }
  [[nodiscard]] double bin_lo(std::size_t i) const { return lo_ + width() * static_cast<double>(i); }
  [[nodiscard]] double probability(std::size_t i) const {
    return total_ == 0 ? 0.0 : static_cast<double>(bins_[i]) / static_cast<double>(total_);
  }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Merge a histogram with the identical binning (lo, hi, bin count);
  /// throws std::invalid_argument on a geometry mismatch.
  void merge(const Histogram& o) {
    if (lo_ != o.lo_ || hi_ != o.hi_ || bins_.size() != o.bins_.size()) {
      throw std::invalid_argument{"Histogram::merge: binning mismatch"};
    }
    for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += o.bins_[i];
    total_ += o.total_;
  }

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

/// Retains every sample; exact quantiles. URLLC reliability statements are
/// about extreme quantiles (99.999 %), where streaming estimators are too
/// coarse — latency experiments here are small enough to keep all samples.
class SampleSet {
 public:
  void add(double x) { xs_.push_back(x); sorted_ = false; }
  void add(Nanos t) { add(static_cast<double>(t.count())); }

  [[nodiscard]] std::size_t count() const { return xs_.size(); }

  /// Quantile q in [0,1], nearest-rank (q=1 is the maximum).
  [[nodiscard]] double quantile(double q) {
    sort();
    return sorted_quantile(q);
  }

  /// quantile() of a set already sorted by sort(): no copy and no sort, so
  /// concurrent readers of one shared sorted set may all call it.
  [[nodiscard]] double sorted_quantile(double q) const {
    assert(sorted_);
    if (xs_.empty()) return 0.0;
    const auto r = static_cast<std::size_t>(q * static_cast<double>(xs_.size() - 1) + 0.5);
    return xs_[std::min(r, xs_.size() - 1)];
  }

  /// Fraction of samples <= threshold: the paper's "reliability at deadline".
  /// A sorted set counts by binary search, which gives the same count.
  [[nodiscard]] double fraction_at_or_below(double threshold) const {
    if (xs_.empty()) return 0.0;
    const auto k = static_cast<std::size_t>(
        sorted_ ? std::upper_bound(xs_.begin(), xs_.end(), threshold) - xs_.begin()
                : std::count_if(xs_.begin(), xs_.end(),
                                [threshold](double x) { return x <= threshold; }));
    return static_cast<double>(k) / static_cast<double>(xs_.size());
  }

  [[nodiscard]] double mean() const {
    if (xs_.empty()) return 0.0;
    double s = 0.0;
    for (double x : xs_) s += x;
    return s / static_cast<double>(xs_.size());
  }

  [[nodiscard]] double max() {
    sort();
    return xs_.empty() ? 0.0 : xs_.back();
  }
  [[nodiscard]] double min() {
    sort();
    return xs_.empty() ? 0.0 : xs_.front();
  }

  [[nodiscard]] const std::vector<double>& samples() const { return xs_; }

  /// Append another set's samples in their insertion order, so a merged set
  /// is byte-identical to one serial accumulation over the same stream.
  void merge(const SampleSet& o) {
    if (o.xs_.empty()) return;
    xs_.insert(xs_.end(), o.xs_.begin(), o.xs_.end());
    sorted_ = false;
  }

  /// Sort the samples in place (a no-op when already sorted); samples()
  /// then lists them in ascending order.
  void sort() {
    if (!sorted_) { std::sort(xs_.begin(), xs_.end()); sorted_ = true; }
  }

 private:
  std::vector<double> xs_;
  bool sorted_ = true;
};

}  // namespace u5g
