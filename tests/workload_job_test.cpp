#include "workload/job.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace hs {
namespace {

JobRecord ValidRigid() {
  JobRecord j;
  j.id = 1;
  j.project = 0;
  j.klass = JobClass::kRigid;
  j.submit_time = 100;
  j.size = 128;
  j.min_size = 128;
  j.compute_time = 3600;
  j.setup_time = 200;
  j.estimate = 7200;
  return j;
}

TEST(JobRecordTest, ValidRigidPasses) { EXPECT_EQ(ValidRigid().Validate(), ""); }

TEST(JobRecordTest, NegativeIdRejected) {
  auto j = ValidRigid();
  j.id = -1;
  EXPECT_NE(j.Validate(), "");
}

TEST(JobRecordTest, ZeroSizeRejected) {
  auto j = ValidRigid();
  j.size = 0;
  EXPECT_NE(j.Validate(), "");
}

TEST(JobRecordTest, MinSizeAboveSizeRejected) {
  auto j = ValidRigid();
  j.klass = JobClass::kMalleable;
  j.min_size = 256;
  EXPECT_NE(j.Validate(), "");
}

TEST(JobRecordTest, NonMalleableWithFlexibleMinRejected) {
  auto j = ValidRigid();
  j.min_size = 64;
  EXPECT_NE(j.Validate(), "");
}

TEST(JobRecordTest, EstimateBelowWallRejected) {
  auto j = ValidRigid();
  j.estimate = j.compute_time;  // below setup + compute
  EXPECT_NE(j.Validate(), "");
}

TEST(JobRecordTest, OnDemandAccurateNoticeConsistency) {
  auto j = ValidRigid();
  j.klass = JobClass::kOnDemand;
  j.notice = NoticeClass::kAccurate;
  j.notice_time = 50;
  j.predicted_arrival = 100;
  EXPECT_EQ(j.Validate(), "");
  j.predicted_arrival = 99;  // accurate must equal submit
  EXPECT_NE(j.Validate(), "");
}

TEST(JobRecordTest, EarlyArrivalMustPrecedePrediction) {
  auto j = ValidRigid();
  j.klass = JobClass::kOnDemand;
  j.notice = NoticeClass::kEarly;
  j.notice_time = 50;
  j.predicted_arrival = 150;
  EXPECT_EQ(j.Validate(), "");  // submit=100 in [50,150]
  j.predicted_arrival = 90;
  EXPECT_NE(j.Validate(), "");
}

TEST(JobRecordTest, LateArrivalMustFollowPrediction) {
  auto j = ValidRigid();
  j.klass = JobClass::kOnDemand;
  j.notice = NoticeClass::kLate;
  j.notice_time = 20;
  j.predicted_arrival = 80;
  EXPECT_EQ(j.Validate(), "");
  j.predicted_arrival = 120;
  EXPECT_NE(j.Validate(), "");
}

TEST(JobRecordTest, NonOnDemandWithNoticeRejected) {
  auto j = ValidRigid();
  j.notice_time = 10;
  EXPECT_NE(j.Validate(), "");
}

TEST(JobRecordTest, TimesBeyondTheBoundRejected) {
  auto j = ValidRigid();
  j.compute_time = kMaxJobTime;
  j.setup_time = 0;
  j.estimate = kMaxJobTime;
  EXPECT_EQ(j.Validate(), "");  // the bound itself is legal
  j.estimate = kMaxJobTime + 1;
  j.compute_time = kMaxJobTime + 1;
  EXPECT_NE(j.Validate(), "");
  j = ValidRigid();
  j.submit_time = kMaxJobTime + 1;
  EXPECT_NE(j.Validate(), "");
}

TEST(JobRecordTest, OverflowingArithmeticRejected) {
  // setup + compute overflows int64.
  auto j = ValidRigid();
  j.setup_time = INT64_MAX - 10;
  j.compute_time = INT64_MAX - 10;
  j.estimate = INT64_MAX;
  EXPECT_EQ(j.Validate(), "setup+compute overflows");
  // Every time within bounds, but estimate * size overflows.
  j = ValidRigid();
  j.size = j.min_size = INT32_MAX;
  j.compute_time = j.estimate = kMaxJobTime;
  j.setup_time = 0;
  EXPECT_EQ(j.Validate(), "node-seconds (estimate * size) overflow");
}

TEST(JobRecordTest, TotalWorkIsComputeTimesSize) {
  const auto j = ValidRigid();
  EXPECT_EQ(j.total_work(), 3600LL * 128);
}

TEST(JobRecordTest, ClassToString) {
  EXPECT_STREQ(ToString(JobClass::kRigid), "rigid");
  EXPECT_STREQ(ToString(JobClass::kOnDemand), "on-demand");
  EXPECT_STREQ(ToString(JobClass::kMalleable), "malleable");
  EXPECT_STREQ(ToString(NoticeClass::kAccurate), "accurate");
}

}  // namespace
}  // namespace hs
