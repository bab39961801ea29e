// Trace-level job description (§III-A of the paper).
//
// A JobRecord is immutable workload input: what the user submitted. Runtime
// state (allocation, progress, restarts) lives in the scheduler, never here,
// so one trace can be replayed under many mechanisms in parallel.
#pragma once

#include <cstdint>
#include <string>

#include "util/time.h"

namespace hs {

using JobId = std::int64_t;
inline constexpr JobId kNoJob = -1;

/// The three application classes the paper co-schedules.
enum class JobClass : std::uint8_t { kRigid = 0, kOnDemand = 1, kMalleable = 2 };

/// The four on-demand notice categories of Fig. 1.
enum class NoticeClass : std::uint8_t {
  kNone = 0,      // no advance notice: the arrival is the first signal
  kAccurate = 1,  // predicted arrival == actual arrival
  kEarly = 2,     // arrives between the notice and the predicted arrival
  kLate = 3,      // arrives within 30 min after the predicted arrival
};

/// Largest duration or timestamp a valid JobRecord carries: 2^40 s, about
/// 34,800 years — far past any real workload, and small enough that the
/// simulator's sums of a few job times can never overflow SimTime.
inline constexpr SimTime kMaxJobTime = SimTime{1} << 40;

const char* ToString(JobClass klass);
const char* ToString(NoticeClass notice);

struct JobRecord {
  JobId id = kNoJob;
  std::int32_t project = -1;
  JobClass klass = JobClass::kRigid;
  NoticeClass notice = NoticeClass::kNone;  // meaningful for on-demand only

  /// Actual arrival (submission) time.
  SimTime submit_time = 0;
  /// Advance-notice timestamp (on-demand only; kNever when no notice).
  SimTime notice_time = kNever;
  /// Arrival time predicted by the notice (kNever when no notice).
  SimTime predicted_arrival = kNever;

  /// Requested nodes. For malleable jobs this is the *maximum* size
  /// (the original request, §IV-B); min_size is the shrink floor.
  int size = 0;
  int min_size = 0;  // == size for rigid/on-demand jobs

  /// Actual useful compute seconds when running at `size` nodes
  /// (excludes setup and checkpoint dumps).
  SimTime compute_time = 0;
  /// User wall-time estimate covering setup + compute (the kill limit;
  /// actual setup + compute never exceeds it, per trace construction).
  SimTime estimate = 0;
  /// One-time startup cost paid at every (re)start.
  SimTime setup_time = 0;

  bool is_on_demand() const { return klass == JobClass::kOnDemand; }
  bool is_malleable() const { return klass == JobClass::kMalleable; }
  bool is_rigid() const { return klass == JobClass::kRigid; }
  bool has_notice() const { return notice_time != kNever; }

  /// Total work in node-seconds (the malleable progress budget; also the
  /// useful node-seconds a completed job contributes to utilization).
  std::int64_t total_work() const {
    return static_cast<std::int64_t>(compute_time) * size;
  }

  /// Validates internal consistency; returns an empty string when valid,
  /// otherwise a description of the first violated constraint. A valid
  /// record's times are within kMaxJobTime and its node-seconds
  /// (estimate * size, which bounds total_work()) fit in int64, so the
  /// scheduler's job arithmetic cannot overflow.
  std::string Validate() const;
};

}  // namespace hs
