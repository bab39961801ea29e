#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

TailPercentile HighestTail(const std::vector<double>& samples) {
  const double n = static_cast<double>(samples.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) return {p, Percentile(samples, p)};
  }
  return {};
}

namespace {
// Bucket b covers [kBase^b, kBase^(b+1)) nanoseconds.
constexpr double kBase = 1.01;
}  // namespace

void LogHistogram::Add(double ns) {
  int bucket = ns <= 1.0 ? 0 : static_cast<int>(std::log(ns) / std::log(kBase));
  bucket = std::clamp(bucket, 0, kBuckets - 1);
  ++buckets_[static_cast<std::size_t>(bucket)];
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (std::size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LogHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= std::max<std::uint64_t>(target, 1)) {
      return std::pow(kBase, static_cast<double>(b) + 0.5);
    }
  }
  return std::pow(kBase, static_cast<double>(kBuckets));
}

std::string Fnv1aHex(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(hash));
  return out;
}

}  // namespace perfbench
