#include "workload/job.h"

#include "util/checked_math.h"

namespace hs {

const char* ToString(JobClass klass) {
  switch (klass) {
    case JobClass::kRigid: return "rigid";
    case JobClass::kOnDemand: return "on-demand";
    case JobClass::kMalleable: return "malleable";
  }
  return "?";
}

const char* ToString(NoticeClass notice) {
  switch (notice) {
    case NoticeClass::kNone: return "none";
    case NoticeClass::kAccurate: return "accurate";
    case NoticeClass::kEarly: return "early";
    case NoticeClass::kLate: return "late";
  }
  return "?";
}

std::string JobRecord::Validate() const {
  if (id < 0) return "id must be non-negative";
  if (size <= 0) return "size must be positive";
  if (min_size <= 0 || min_size > size) return "min_size must be in [1, size]";
  if (!is_malleable() && min_size != size) return "min_size != size for non-malleable job";
  if (compute_time <= 0) return "compute_time must be positive";
  if (setup_time < 0) return "setup_time must be non-negative";
  const std::optional<std::int64_t> wall = CheckedMulAdd(setup_time, 1, compute_time);
  if (!wall.has_value()) return "setup+compute overflows";
  if (estimate < *wall) return "estimate below setup+compute";
  if (estimate > kMaxJobTime) return "estimate above the 2^40 s bound";
  // estimate >= setup + compute, so this also bounds total_work() and the
  // scheduler's (estimate - setup) * size.
  if (!CheckedMulAdd(estimate, size, 0).has_value()) {
    return "node-seconds (estimate * size) overflow";
  }
  if (submit_time < 0) return "submit_time must be non-negative";
  if (submit_time > kMaxJobTime) return "submit_time above the 2^40 s bound";
  if (is_on_demand()) {
    if (notice == NoticeClass::kNone) {
      if (notice_time != kNever) return "no-notice job carries a notice_time";
    } else {
      if (notice_time == kNever || predicted_arrival == kNever)
        return "noticed job missing notice_time/predicted_arrival";
      if (notice_time < -kMaxJobTime || predicted_arrival < -kMaxJobTime ||
          predicted_arrival > kMaxJobTime)
        return "notice_time/predicted_arrival outside the 2^40 s bound";
      if (notice_time > submit_time) return "notice_time after actual arrival";
      if (notice_time > predicted_arrival) return "notice_time after predicted arrival";
      if (notice == NoticeClass::kAccurate && predicted_arrival != submit_time)
        return "accurate notice with predicted != actual";
      if (notice == NoticeClass::kEarly && submit_time > predicted_arrival)
        return "early job arriving after predicted arrival";
      if (notice == NoticeClass::kLate && submit_time < predicted_arrival)
        return "late job arriving before predicted arrival";
    }
  } else {
    if (notice != NoticeClass::kNone || notice_time != kNever)
      return "non-on-demand job carries notice data";
  }
  return {};
}

}  // namespace hs
