// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Timing and sample statistics for the engine benchmark: the clock,
// quantiles of integer nanosecond timings, and a bounded uniform sample of a
// long timing series.

#ifndef WBS_PERFBENCH_STATS_H_
#define WBS_PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The monotonic clock in nanoseconds, the unit every timing here is kept in.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile of integer timings (nanoseconds). The clock rounds each
/// timing to a whole nanosecond, so a run of k equal samples at value x
/// stands for k values spread over [x - 0.5, x + 0.5); the quantile
/// interpolates inside that run instead of snapping to x. Sorts `v`.
/// Returns 0 for an empty sample.
inline double QuantileNs(std::vector<uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t k = std::min(n - 1, size_t(q * double(n)));
  const uint64_t x = v[k];
  const size_t lo = size_t(std::lower_bound(v.begin(), v.end(), x) - v.begin());
  const size_t hi = size_t(std::upper_bound(v.begin(), v.end(), x) - v.begin());
  return double(x) - 0.5 + (double(k - lo) + 0.5) / double(hi - lo);
}

/// The q-quantile of real-valued samples (nearest rank). Sorts `v`.
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, size_t(q * double(v.size())))];
}

/// A uniform random sample of at most `capacity` values from a stream of
/// any length (reservoir sampling), so a multi-million-query serve phase
/// keeps bounded memory. Deterministic for a fixed seed.
template <typename T>
class Reservoir {
 public:
  explicit Reservoir(size_t capacity, uint64_t seed = 0x5eed)
      : capacity_(capacity), rng_(seed | 1) {
    values_.reserve(capacity);
  }

  void Add(const T& v) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(v);
      return;
    }
    const uint64_t j = Next() % seen_;
    if (j < capacity_) values_[size_t(j)] = v;
  }

  std::vector<T>& values() { return values_; }

 private:
  uint64_t Next() {  // xorshift64*
    rng_ ^= rng_ >> 12;
    rng_ ^= rng_ << 25;
    rng_ ^= rng_ >> 27;
    return rng_ * 0x2545F4914F6CDD1DULL;
  }

  size_t capacity_;
  uint64_t rng_;
  uint64_t seen_ = 0;
  std::vector<T> values_;
};

}  // namespace perfbench

#endif  // WBS_PERFBENCH_STATS_H_
