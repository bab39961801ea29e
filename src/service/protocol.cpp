#include "service/protocol.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "util/checked_math.h"

namespace hs {

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::int64_t ParseInt64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const std::int64_t parsed = std::stoll(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad integer for '" + key + "': " + value);
  }
}

/// An int-typed job field: a value outside int's range is refused rather
/// than silently narrowed (size=4294967312 must not become size=16).
int GetIntField(const Request& req, const std::string& key, int def) {
  const std::int64_t value = req.GetInt(key, def);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("'" + key + "=" + std::to_string(value) +
                                "' is out of range");
  }
  return static_cast<int>(value);
}

std::string WireClassName(JobClass klass) {
  switch (klass) {
    case JobClass::kRigid: return "rigid";
    case JobClass::kOnDemand: return "od";
    case JobClass::kMalleable: return "malleable";
  }
  return "rigid";
}

JobClass ParseWireClass(const std::string& name) {
  if (name == "rigid") return JobClass::kRigid;
  if (name == "od") return JobClass::kOnDemand;
  if (name == "malleable") return JobClass::kMalleable;
  throw std::invalid_argument("bad job class '" + name +
                              "' (rigid|od|malleable)");
}

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t space = line.find(' ', pos);
    const std::size_t end = space == std::string::npos ? line.size() : space;
    if (end > pos) tokens.push_back(line.substr(pos, end - pos));
    pos = end + 1;
  }
  return tokens;
}

}  // namespace

std::string EscapeField(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == ' ') {
      out += "%20";
    } else if (c == '%') {
      out += "%25";
    } else if (c == '\n') {
      out += "%0A";
    } else {
      out += c;
    }
  }
  return out;
}

std::string UnescapeField(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (value[i] == '%') {
      if (i + 2 >= value.size()) {
        throw std::invalid_argument("truncated %-escape in '" + value + "'");
      }
      const int hi = HexDigit(value[i + 1]);
      const int lo = HexDigit(value[i + 2]);
      if (hi < 0 || lo < 0) {
        throw std::invalid_argument("bad %-escape in '" + value + "'");
      }
      out += static_cast<char>(hi * 16 + lo);
      i += 2;
    } else {
      out += value[i];
    }
  }
  return out;
}

std::string FmtExactDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g",
                std::numeric_limits<double>::max_digits10, value);
  return buf;
}

Request Request::Parse(const std::string& line) {
  const std::vector<std::string> tokens = SplitTokens(line);
  if (tokens.empty()) throw std::invalid_argument("empty request line");
  Request req;
  req.verb_ = tokens[0];
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("argument '" + tokens[i] +
                                  "' is not key=value");
    }
    req.args_.emplace_back(tokens[i].substr(0, eq),
                           UnescapeField(tokens[i].substr(eq + 1)));
  }
  return req;
}

bool Request::Has(const std::string& key) const {
  recognized_.push_back(key);
  for (const auto& [k, v] : args_) {
    if (k == key) return true;
  }
  return false;
}

std::string Request::GetString(const std::string& key, const std::string& def) const {
  recognized_.push_back(key);
  for (const auto& [k, v] : args_) {
    if (k == key) return v;
  }
  return def;
}

std::int64_t Request::GetInt(const std::string& key, std::int64_t def) const {
  recognized_.push_back(key);
  for (const auto& [k, v] : args_) {
    if (k == key) return ParseInt64(key, v);
  }
  return def;
}

SimTime Request::GetTime(const std::string& key, SimTime now, SimTime def) const {
  recognized_.push_back(key);
  for (const auto& [k, v] : args_) {
    if (k != key) continue;
    if (!v.empty() && v[0] == '+') {
      const std::optional<std::int64_t> at =
          CheckedMulAdd(ParseInt64(key, v.substr(1)), 1, now);
      if (!at.has_value()) {
        throw std::invalid_argument("'" + key + "=" + v + "' overflows from now=" +
                                    std::to_string(now));
      }
      return *at;
    }
    return ParseInt64(key, v);
  }
  return def;
}

void Request::RejectUnknown() const {
  for (const auto& [k, v] : args_) {
    if (std::find(recognized_.begin(), recognized_.end(), k) ==
        recognized_.end()) {
      throw std::invalid_argument("unknown argument '" + k + "' for verb '" +
                                  verb_ + "'");
    }
  }
}

std::string FormatRequest(
    const std::string& verb,
    const std::vector<std::pair<std::string, std::string>>& args) {
  std::string line = verb;
  for (const auto& [key, value] : args) {
    line += ' ';
    line += key;
    line += '=';
    line += EscapeField(value);
  }
  return line;
}

std::string FormatJobFields(const JobRecord& job, bool with_id) {
  std::string out;
  if (with_id) out += "id=" + std::to_string(job.id) + " ";
  out += "class=" + WireClassName(job.klass);
  out += " size=" + std::to_string(job.size);
  out += " min=" + std::to_string(job.min_size);
  out += " submit=" + std::to_string(job.submit_time);
  out += " compute=" + std::to_string(job.compute_time);
  out += " estimate=" + std::to_string(job.estimate);
  out += " setup=" + std::to_string(job.setup_time);
  if (job.has_notice()) {
    out += " notice=" + std::to_string(job.notice_time);
    out += " predicted=" + std::to_string(job.predicted_arrival);
  }
  if (job.project >= 0) out += " project=" + std::to_string(job.project);
  return out;
}

JobRecord ParseJobFields(const Request& req, SimTime now) {
  JobRecord job;
  job.klass = ParseWireClass(req.GetString("class", "rigid"));
  job.size = GetIntField(req, "size", 0);
  job.min_size = GetIntField(req, "min", job.size);
  job.submit_time = req.GetTime("submit", now, now + 1);
  job.compute_time = req.GetTime("compute", 0, 0);
  job.estimate = req.GetTime("estimate", 0, 0);
  job.setup_time = req.GetTime("setup", 0, 0);
  job.project = GetIntField(req, "project", -1);
  if (job.estimate == 0) {
    // An overflowing default is left for JobRecord::Validate() to reject.
    job.estimate =
        CheckedMulAdd(job.setup_time, 1, job.compute_time).value_or(kNever);
  }
  const bool has_notice = req.Has("notice");
  const bool has_predicted = req.Has("predicted");
  if (has_notice != has_predicted) {
    throw std::invalid_argument("notice= and predicted= go together");
  }
  if (has_notice) {
    if (job.klass != JobClass::kOnDemand) {
      throw std::invalid_argument("only od jobs carry a notice");
    }
    job.notice_time = req.GetTime("notice", now, kNever);
    job.predicted_arrival = req.GetTime("predicted", now, kNever);
    if (job.predicted_arrival == job.submit_time) {
      job.notice = NoticeClass::kAccurate;
    } else if (job.submit_time < job.predicted_arrival) {
      job.notice = NoticeClass::kEarly;
    } else {
      job.notice = NoticeClass::kLate;
    }
  }
  return job;
}

JobId ParseJobId(const Request& req) {
  if (!req.Has("id")) throw std::invalid_argument("missing id=");
  return req.GetInt("id", kNoJob);
}

}  // namespace hs
