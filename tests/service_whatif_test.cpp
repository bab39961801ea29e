// Fork-determinism differential tests for the what-if machinery (the PR's
// acceptance criterion): for every one of the original seven mechanisms,
// the `whatif` answer must byte-equal a cold batch run of that mechanism
// over (base trace + online submissions + probe), truncated at the probe's
// start — and answers must be byte-deterministic across repeated calls and
// across the fork / op-log-replay paths.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exp/session.h"
#include "service/service_session.h"
#include "util/time.h"

namespace hs {
namespace {

constexpr const char* kOriginalMechanisms[] = {
    "baseline", "N&PAA", "N&SPAA", "CUA&PAA", "CUA&SPAA", "CUP&PAA", "CUP&SPAA",
};

SimSpec ServiceSpec(const std::string& mechanism) {
  SimSpec spec = SimSpec::Parse(mechanism + "/FCFS/W5/preset=midsize");
  spec.seed = 3;
  return spec;
}

JobRecord RigidProbe(SimTime submit) {
  JobRecord probe;
  probe.klass = JobClass::kRigid;
  probe.size = probe.min_size = 512;
  probe.submit_time = submit;
  probe.compute_time = kHour;
  probe.estimate = kHour + 10 * kMinute;
  return probe;
}

/// Drives a session through a representative online history: advance two
/// days, submit a noticed on-demand job and a rigid job, advance further.
void DriveHistory(ServiceSession& session) {
  session.AdvanceTo(2 * kDay);

  JobRecord od;
  od.klass = JobClass::kOnDemand;
  od.size = od.min_size = 256;
  od.notice = NoticeClass::kAccurate;
  od.notice_time = session.now() + 10 * kMinute;
  od.submit_time = session.now() + kHour;
  od.predicted_arrival = od.submit_time;
  od.compute_time = 2 * kHour;
  od.estimate = 2 * kHour + 5 * kMinute;
  session.Submit(od);

  JobRecord rigid;
  rigid.klass = JobClass::kRigid;
  rigid.size = rigid.min_size = 128;
  rigid.submit_time = session.now() + 30 * kMinute;
  rigid.compute_time = 4 * kHour;
  rigid.estimate = 5 * kHour;
  session.Submit(rigid);

  session.AdvanceTo(3 * kDay);
}

/// The oracle: a cold batch SimulationSession of `mechanism` over the
/// session's effective trace (base + online jobs + probe appended with
/// dense ids), run through the same RunUntilStarted truncation.
WhatIfAnswer ColdBatchOracle(const ServiceSession& service,
                             const std::string& mechanism,
                             const JobRecord& probe) {
  Trace effective = service.base_trace();
  for (const SessionOp& op : service.ops()) {
    if (op.kind == SessionOp::Kind::kSubmit) effective.jobs.push_back(op.job);
  }
  JobRecord appended = probe;
  appended.id = static_cast<JobId>(effective.jobs.size());
  effective.jobs.push_back(appended);

  SimSpec spec = service.spec();
  spec.mechanism = mechanism;
  SimulationSession batch(spec, std::make_shared<const Trace>(std::move(effective)));
  return RunUntilStarted(batch, appended.id, mechanism);
}

// The headline criterion: whatif == truncated cold batch run, for all
// seven original mechanisms, byte-for-byte in wire format.
TEST(ServiceWhatIfTest, MatchesColdBatchOracleForAllOriginalMechanisms) {
  ServiceSession service(ServiceSpec("CUP&SPAA"));
  DriveHistory(service);

  const JobRecord probe = RigidProbe(service.now() + 10 * kMinute);
  std::vector<std::string> mechanisms(std::begin(kOriginalMechanisms),
                                      std::end(kOriginalMechanisms));
  const std::vector<WhatIfAnswer> answers = service.WhatIf(probe, mechanisms);
  ASSERT_EQ(answers.size(), mechanisms.size());

  for (std::size_t i = 0; i < mechanisms.size(); ++i) {
    const WhatIfAnswer oracle = ColdBatchOracle(service, mechanisms[i], probe);
    EXPECT_EQ(FormatWhatIfAnswer(answers[i]), FormatWhatIfAnswer(oracle))
        << "mechanism " << mechanisms[i];
    EXPECT_TRUE(answers[i].started) << mechanisms[i];
  }
}

// Repeated calls — and the live session afterwards — are unperturbed:
// what-if runs on private copies only.
TEST(ServiceWhatIfTest, ByteDeterministicAndNonPerturbing) {
  ServiceSession service(ServiceSpec("CUA&PAA"));
  DriveHistory(service);
  const SimTime now_before = service.now();
  const std::size_t ops_before = service.ops_logged();

  const JobRecord probe = RigidProbe(service.now() + 10 * kMinute);
  const std::vector<std::string> mechanisms = {"baseline", "CUA&PAA", "CUP&SPAA"};
  const std::vector<WhatIfAnswer> first = service.WhatIf(probe, mechanisms);
  const std::vector<WhatIfAnswer> second = service.WhatIf(probe, mechanisms);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(FormatWhatIfAnswer(first[i]), FormatWhatIfAnswer(second[i]));
  }

  EXPECT_EQ(service.now(), now_before);
  EXPECT_EQ(service.ops_logged(), ops_before);
  // The probe never leaked into the live session.
  EXPECT_EQ(service.Query(static_cast<JobId>(service.base_trace().jobs.size() + 2)).state,
            ServiceSession::JobState::kUnknown);
}

// The fork fast path (live mechanism) and the op-log replay path must
// agree — forced replay produces the same bytes.
TEST(ServiceWhatIfTest, ForkPathEqualsReplayPath) {
  ServiceSession service(ServiceSpec("N&SPAA"));
  DriveHistory(service);

  const JobRecord probe = RigidProbe(service.now() + 10 * kMinute);
  const std::vector<std::string> mechanisms = {"N&SPAA"};
  const std::vector<WhatIfAnswer> forked = service.WhatIf(probe, mechanisms);
  const std::vector<WhatIfAnswer> replayed =
      service.WhatIf(probe, mechanisms, /*force_replay=*/true);
  ASSERT_EQ(forked.size(), 1u);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(FormatWhatIfAnswer(forked[0]), FormatWhatIfAnswer(replayed[0]));
}

// A replay basis is a snapshot: the server takes it under the read lock
// and replays with no lock held, so a submit that lands on the live session
// in between must not reach the replay.
TEST(ServiceWhatIfTest, ReplayBasisIsUnaffectedByLaterSubmits) {
  ServiceSession service(ServiceSpec("CUP&SPAA"));
  DriveHistory(service);
  const JobRecord probe = RigidProbe(service.now() + 10 * kMinute);
  const std::vector<WhatIfAnswer> before =
      service.WhatIf(probe, {"N&PAA"}, /*force_replay=*/true);
  ASSERT_EQ(before.size(), 1u);

  const ReplayBasis basis = service.TakeReplayBasis();
  JobRecord rival = RigidProbe(service.now() + 5 * kMinute);
  rival.size = rival.min_size = 1024;
  service.Submit(rival);
  ASSERT_EQ(service.ops_logged(), basis.ops.size() + 1);

  std::unique_ptr<SimulationSession> replayed = basis.Replay("N&PAA");
  const JobId id = replayed->SubmitJob(probe);
  EXPECT_EQ(FormatWhatIfAnswer(RunUntilStarted(*replayed, id, "N&PAA")),
            FormatWhatIfAnswer(before[0]));
}

// An on-demand probe with an advance notice exercises the notice-driven
// mechanisms' reservation machinery through the what-if path.
TEST(ServiceWhatIfTest, OnDemandProbeMatchesOracle) {
  ServiceSession service(ServiceSpec("CUP&SPAA"));
  DriveHistory(service);

  JobRecord probe;
  probe.klass = JobClass::kOnDemand;
  probe.size = probe.min_size = 384;
  probe.notice = NoticeClass::kAccurate;
  probe.notice_time = service.now() + 5 * kMinute;
  probe.submit_time = service.now() + kHour;
  probe.predicted_arrival = probe.submit_time;
  probe.compute_time = kHour;
  probe.estimate = kHour + 5 * kMinute;

  for (const char* mechanism : {"CUP&SPAA", "N&PAA", "baseline"}) {
    const std::vector<WhatIfAnswer> answers =
        service.WhatIf(probe, {mechanism});
    ASSERT_EQ(answers.size(), 1u);
    const WhatIfAnswer oracle = ColdBatchOracle(service, mechanism, probe);
    EXPECT_EQ(FormatWhatIfAnswer(answers[0]), FormatWhatIfAnswer(oracle))
        << mechanism;
  }
}

// Unknown mechanisms are rejected loudly.
TEST(ServiceWhatIfTest, UnknownMechanismThrows) {
  ServiceSession service(ServiceSpec("baseline"));
  const JobRecord probe = RigidProbe(service.now() + kHour);
  EXPECT_THROW(service.WhatIf(probe, {"NOPE&NOPE"}), std::invalid_argument);
}

}  // namespace
}  // namespace hs
