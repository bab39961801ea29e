// In-memory span log of the traced run.
//
// One span per call the benchmark times at a layer boundary: name (the
// layer), start and end, parent span, and the cell or request id it
// belongs to. Calls too frequent to keep one by one (HandleEvent and
// OnQuiescent run ~10^5 times per cell) are kept as one aggregate span per
// cell: `busy` is the summed duration of `count` calls inside [start, end].
// A span's self time is its busy time minus the busy time of its direct
// children. Spans stay in memory and are written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  std::int64_t id = -1;      // cell or request id (-1: none)
  std::int64_t parent = -1;  // index of the parent span (-1: root)
  Clock::time_point start;
  Clock::time_point end;
  double busy_s = 0.0;
  std::uint64_t count = 1;
};

struct LayerTotals {
  std::uint64_t count = 0;
  double busy_s = 0.0;
  double self_s = 0.0;
};

/// Thread-safe: cells of one grid add their spans from pool threads.
class SpanRecorder {
 public:
  /// Opens a span starting now; returns its index.
  std::int64_t Open(std::string name, std::int64_t id, std::int64_t parent);
  /// Ends an opened span now.
  void Close(std::int64_t span);
  /// Adds a finished span (aggregate when `count` > 1); returns its index.
  std::int64_t Add(std::string name, std::int64_t id, std::int64_t parent,
                   Clock::time_point start, Clock::time_point end, double busy_s,
                   std::uint64_t count = 1);

  /// Count, busy and self time per span name.
  std::map<std::string, LayerTotals> Totals() const;

  /// One JSON object per span, times in seconds since the first span.
  void WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Count, busy and self time per layer, with each layer's share of the
/// summed self time (busy and self are summed over threads).
std::string FormatSelfTimeTable(const SpanRecorder& spans);

}  // namespace perfbench
