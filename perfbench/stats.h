// Sample summaries for the benchmark: medians, the reported tail
// percentile, a log-bucketed histogram for hot-path durations too numerous
// to keep one by one, and the CSV digest behind the correctness gate.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

inline double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that still has at least
/// ten samples beyond it. `p` is 0 when not even p75 qualifies.
struct TailPercentile {
  double p = 0.0;
  double value = 0.0;
};
TailPercentile HighestTail(const std::vector<double>& samples);

/// Durations in nanoseconds, bucketed at ~1% relative resolution from
/// 1 ns to ~70 s. Add() allocates nothing, so a hot loop can feed it.
class LogHistogram {
 public:
  void Add(double ns);
  void Merge(const LogHistogram& other);
  std::uint64_t count() const { return count_; }
  /// Approximate percentile (bucket midpoint), in nanoseconds.
  double Percentile(double p) const;

 private:
  static constexpr int kBuckets = 2560;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// 64-bit FNV-1a of `text`, as 16 lowercase hex digits.
std::string Fnv1aHex(const std::string& text);

}  // namespace perfbench
