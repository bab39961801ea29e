#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t SpanRecorder::Open(std::string name, std::int64_t id, std::int64_t parent) {
  const Clock::time_point now = Clock::now();
  return Add(std::move(name), id, parent, now, now, 0.0);
}

void SpanRecorder::Close(std::int64_t span) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& s = spans_.at(static_cast<std::size_t>(span));
  s.end = now;
  s.busy_s = SecondsBetween(s.start, s.end);
}

std::int64_t SpanRecorder::Add(std::string name, std::int64_t id, std::int64_t parent,
                               Clock::time_point start, Clock::time_point end,
                               double busy_s, std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), id, parent, start, end, busy_s, count});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, LayerTotals> SpanRecorder::Totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_busy(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_busy[static_cast<std::size_t>(s.parent)] += s.busy_s;
  }
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = totals[spans_[i].name];
    t.count += spans_[i].count;
    t.busy_s += spans_[i].busy_s;
    t.self_s += std::max(0.0, spans_[i].busy_s - child_busy[i]);
  }
  return totals;
}

void SpanRecorder::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span dump " + path);
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"span\":" << i << ",\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_s\":" << SecondsBetween(origin, s.start)
        << ",\"end_s\":" << SecondsBetween(origin, s.end) << ",\"busy_s\":" << s.busy_s
        << ",\"count\":" << s.count << "}\n";
  }
  if (!out.flush()) throw std::runtime_error("cannot write span dump " + path);
}

std::string FormatSelfTimeTable(const SpanRecorder& spans) {
  const auto totals = spans.Totals();
  double self_total = 0.0;
  for (const auto& [name, t] : totals) self_total += t.self_s;
  std::string table;
  char line[160];
  std::snprintf(line, sizeof line, "  %-24s %12s %12s %12s %8s\n", "layer", "count", "busy_s",
                "self_s", "self%");
  table += line;
  for (const auto& [name, t] : totals) {
    std::snprintf(line, sizeof line, "  %-24s %12llu %12.6f %12.6f %7.2f%%\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.busy_s, t.self_s,
                  self_total > 0 ? 100.0 * t.self_s / self_total : 0.0);
    table += line;
  }
  return table;
}

}  // namespace perfbench
