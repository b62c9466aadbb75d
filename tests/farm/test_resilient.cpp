// Battery for the crash-resilient campaign driver (run_resilient):
// deterministic quarantine at any thread count, bounded same-seed
// retry, watchdog deadlines, and checkpoint/resume to a bit-identical
// aggregate.  Runs under the farm label, so it must be TSan-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/rng.hpp"
#include "src/farm/resilient.hpp"
#include "src/xpp/snapshot.hpp"
#include "src/rake/maps.hpp"
#include "src/xpp/fault.hpp"
#include "src/xpp/manager.hpp"

namespace rsp::farm {
namespace {

/// Pure kernel: one frame, counts derived from the seed alone.
TrialResult pure_trial(std::uint64_t seed) {
  Rng rng(seed);
  TrialResult r;
  r.bits = 100;
  r.bit_errors = rng.below(5);
  r.frames = 1;
  r.frame_errors = r.bit_errors > 3 ? 1 : 0;
  return r;
}

TEST(Resilient, OptionValidation) {
  const TrialKernel ok = [](std::uint64_t s, std::size_t) {
    return pure_trial(s);
  };
  ResilientOptions bad_attempts;
  bad_attempts.max_attempts = 0;
  EXPECT_THROW((void)run_resilient(4, 1, ok, bad_attempts),
               std::invalid_argument);

  ResilientOptions bad_deadline;
  bad_deadline.deadline_seconds = -1.0;
  EXPECT_THROW((void)run_resilient(4, 1, ok, bad_deadline),
               std::invalid_argument);

  ResilientOptions resume_no_path;
  resume_no_path.resume = true;
  EXPECT_THROW((void)run_resilient(4, 1, ok, resume_no_path),
               std::invalid_argument);

  ResilientOptions bad_farm;
  bad_farm.farm.queue_capacity = 0;
  EXPECT_THROW((void)run_resilient(4, 1, ok, bad_farm),
               std::invalid_argument);
}

TEST(Resilient, QuarantineIsDeterministicAcrossThreadCounts) {
  // Poisoned indices throw every attempt; the campaign must complete,
  // quarantine exactly those indices, and exclude them from the
  // aggregate — identically at every thread count.
  const std::vector<std::size_t> poison = {2, 9, 10, 17};
  const TrialKernel kernel = [&](std::uint64_t seed,
                                 std::size_t index) -> TrialResult {
    for (const std::size_t p : poison) {
      if (index == p) throw std::runtime_error("poisoned seed");
    }
    return pure_trial(seed);
  };

  TrialResult expected_total;
  for (std::size_t i = 0; i < 24; ++i) {
    bool poisoned = false;
    for (const std::size_t p : poison) poisoned |= (i == p);
    if (!poisoned) expected_total += pure_trial(Rng::split(77, i));
  }

  for (const int threads : {1, 2, 5}) {
    ResilientOptions opts;
    opts.farm.threads = threads;
    opts.farm.queue_capacity = 2;
    opts.max_attempts = 2;
    const ResilientResult res = run_resilient(24, 77, kernel, opts);
    EXPECT_EQ(res.quarantined, poison) << threads << " threads";
    EXPECT_EQ(res.result.agg.total(), expected_total) << threads << " threads";
    EXPECT_EQ(res.completed(), 20u);
    EXPECT_EQ(res.retries, 4)  // one retry per poisoned task
        << threads << " threads";
    for (const std::size_t p : poison) {
      EXPECT_EQ(res.outcomes[p].status, TaskStatus::kFailed);
      EXPECT_EQ(res.outcomes[p].attempts, 2);
      EXPECT_EQ(res.outcomes[p].error, "poisoned seed");
      EXPECT_EQ(res.result.per_task[p], TrialResult{}) << "task " << p;
    }
    EXPECT_FALSE(res.report().empty());
  }
}

TEST(Resilient, RetrySucceedsWithSameSeed) {
  // A transiently flaky task (fails once, then succeeds) must end
  // kRetriedOk with the SAME result a never-failing run produces —
  // the retry re-runs Rng::split(base, i), a pure re-execution.
  const std::size_t n = 12;
  auto first_attempt_failed = std::make_shared<std::vector<std::atomic<int>>>(n);
  const TrialKernel flaky = [first_attempt_failed](
                                std::uint64_t seed,
                                std::size_t index) -> TrialResult {
    if (index % 4 == 1 &&
        (*first_attempt_failed)[index].fetch_add(1) == 0) {
      throw std::runtime_error("transient");
    }
    return pure_trial(seed);
  };

  ResilientOptions opts;
  opts.farm.threads = 3;
  opts.max_attempts = 3;
  const ResilientResult res = run_resilient(n, 5, flaky, opts);

  EXPECT_TRUE(res.quarantined.empty());
  EXPECT_EQ(res.retries, 3);  // indices 1, 5, 9
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(res.result.per_task[i], pure_trial(Rng::split(5, i)))
        << "task " << i;
    EXPECT_EQ(res.outcomes[i].status,
              i % 4 == 1 ? TaskStatus::kRetriedOk : TaskStatus::kOk)
        << "task " << i;
  }
}

TEST(Resilient, DeadlineTimesOutWedgedTask) {
  // Task 3 wedges (sleeps far past the deadline); the watchdog must
  // abandon it, exhaust its attempts, and quarantine it as kTimedOut
  // while every other task completes normally.
  const TrialKernel kernel = [](std::uint64_t seed,
                                std::size_t index) -> TrialResult {
    if (index == 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    return pure_trial(seed);
  };
  ResilientOptions opts;
  opts.farm.threads = 2;
  opts.max_attempts = 2;
  opts.deadline_seconds = 0.05;
  const ResilientResult res = run_resilient(8, 13, kernel, opts);

  ASSERT_EQ(res.quarantined, std::vector<std::size_t>{3});
  EXPECT_EQ(res.outcomes[3].status, TaskStatus::kTimedOut);
  EXPECT_EQ(res.outcomes[3].attempts, 2);
  EXPECT_NE(res.outcomes[3].error.find("deadline"), std::string::npos);
  for (std::size_t i = 0; i < 8; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(res.outcomes[i].status, TaskStatus::kOk) << "task " << i;
    EXPECT_EQ(res.result.per_task[i], pure_trial(Rng::split(13, i)));
  }
  // Let the detached stragglers drain before the next test begins.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
}

TEST(Resilient, CheckpointResumeIsBitIdentical) {
  // Reference: the campaign in one sitting.  Interrupted: take the
  // final checkpoint, forget half the tasks (as a SIGKILL mid-run
  // would), resume — per-task results, aggregate and quarantine must be
  // bit-identical to the single sitting.  (scripts/check.sh does the
  // real SIGKILL variant end-to-end.)
  const TrialKernel kernel = [](std::uint64_t seed,
                                std::size_t index) -> TrialResult {
    if (index == 7) throw std::runtime_error("poisoned seed");
    return pure_trial(seed);
  };
  const std::string path =
      ::testing::TempDir() + "rsp_resilient_resume_test.ck";

  ResilientOptions opts;
  opts.farm.threads = 3;
  opts.max_attempts = 2;
  opts.checkpoint_path = path;
  opts.checkpoint_every = 4;
  opts.tag = "resume-test";
  const ResilientResult ref = run_resilient(20, 99, kernel, opts);

  CampaignCheckpoint ck = load_campaign_checkpoint(path);
  EXPECT_EQ(ck.n_tasks, 20u);
  for (std::size_t i = 0; i < 20; i += 2) {
    ck.outcomes[i] = TaskOutcome{};  // forget even tasks
    ck.per_task[i] = TrialResult{};
  }
  save_campaign_checkpoint(path, ck);

  ResilientOptions resume = opts;
  resume.resume = true;
  const ResilientResult res = run_resilient(20, 99, kernel, resume);
  EXPECT_EQ(res.resumed_tasks, 10u);
  EXPECT_EQ(res.result.per_task, ref.result.per_task);
  EXPECT_EQ(res.result.agg.total(), ref.result.agg.total());
  EXPECT_EQ(res.quarantined, ref.quarantined);
  EXPECT_EQ(res.outcomes, ref.outcomes);

  // A checkpoint from a different campaign must be refused.
  ResilientOptions wrong = resume;
  wrong.tag = "other-campaign";
  EXPECT_THROW((void)run_resilient(20, 99, kernel, wrong),
               xpp::SnapshotError);
  EXPECT_THROW((void)run_resilient(20, 98, kernel, resume),
               xpp::SnapshotError);
  std::remove(path.c_str());
}

TEST(Resilient, ConcurrentCheckpointPublishIsSafe) {
  // checkpoint_every = 1 at four or more workers: every completion
  // publishes, so several workers write the same checkpoint at once.
  // No write may fail or kill a worker, no staging file may be left
  // behind, and the file left at the end is the finished campaign.
  const int threads =
      std::max(4, static_cast<int>(std::thread::hardware_concurrency()));
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "rsp_ck_publish";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "campaign.ck").string();
  const TrialKernel kernel = [](std::uint64_t seed, std::size_t) {
    return pure_trial(seed);
  };
  ResilientOptions opts;
  opts.farm.threads = threads;
  opts.checkpoint_path = path;
  opts.checkpoint_every = 1;
  opts.tag = "publish";
  for (int rep = 0; rep < 20; ++rep) {
    const std::uint64_t seed = 500 + static_cast<std::uint64_t>(rep);
    const ResilientResult r = run_resilient(96, seed, kernel, opts);
    ASSERT_TRUE(r.quarantined.empty()) << "rep " << rep;
    const CampaignCheckpoint ck = load_campaign_checkpoint(path);
    ASSERT_EQ(ck.base_seed, seed);
    for (const TaskOutcome& o : ck.outcomes) {
      ASSERT_EQ(o.status, TaskStatus::kOk) << "rep " << rep;
    }
    EXPECT_EQ(ck.per_task, r.result.per_task) << "rep " << rep;
  }
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(e.path().filename().string(), "campaign.ck");
    ++files;
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Resilient, CheckpointWriteErrorStopsCampaignAndThrows) {
  // An unwritable checkpoint path fails the first mid-run publish.  The
  // campaign must stop starting tasks and surface the I/O error to the
  // caller as SnapshotError, never from inside a worker thread.
  std::atomic<int> ran{0};
  const TrialKernel kernel = [&ran](std::uint64_t seed, std::size_t) {
    ran.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return pure_trial(seed);
  };
  ResilientOptions opts;
  opts.farm.threads = 4;
  opts.checkpoint_path =
      ::testing::TempDir() + "rsp_no_such_dir/campaign.ck";
  opts.checkpoint_every = 1;
  EXPECT_THROW((void)run_resilient(64, 3, kernel, opts), xpp::SnapshotError);
  EXPECT_LT(ran.load(), 64);
}

TEST(Resilient, SeuFaultStormDegradesGracefully) {
  // The graceful-degradation scenario: every trial runs the descrambler
  // under a per-seed SEU storm and throws when the storm corrupted its
  // output.  Corruption is a pure function of the task seed, so the
  // quarantined set is identical at every thread count, and the
  // campaign completes with the healthy majority aggregated.
  const auto clean = [] {
    xpp::ConfigurationManager mgr({}, xpp::SchedulerKind::kEventDriven);
    const xpp::ConfigId id = mgr.load(rake::maps::descrambler_config());
    std::vector<xpp::Word> data, code;
    Rng rng(1234);
    for (int i = 0; i < 96; ++i) {
      data.push_back(rng.below(1 << 16));
      code.push_back(rng.below(4));
    }
    mgr.input(id, "data").feed(data);
    mgr.input(id, "code").feed(code);
    auto& out = mgr.output(id, "out");
    for (int guard = 0; guard < 5000 && out.data().size() < 96; ++guard) {
      mgr.sim().step();
    }
    return out.take();
  }();

  const TrialKernel storm = [&](std::uint64_t seed,
                                std::size_t) -> TrialResult {
    xpp::ConfigurationManager mgr({}, xpp::SchedulerKind::kEventDriven);
    xpp::FaultPlan plan;
    plan.seu = {0.004, seed, 0, xpp::kStuckForever};
    xpp::FaultInjector inj(plan);
    mgr.sim().install_faults(&inj);
    const xpp::ConfigId id = mgr.load(rake::maps::descrambler_config());
    std::vector<xpp::Word> data, code;
    Rng rng(1234);
    for (int i = 0; i < 96; ++i) {
      data.push_back(rng.below(1 << 16));
      code.push_back(rng.below(4));
    }
    mgr.input(id, "data").feed(data);
    mgr.input(id, "code").feed(code);
    auto& out = mgr.output(id, "out");
    for (int guard = 0; guard < 5000 && out.data().size() < 96; ++guard) {
      mgr.sim().step();
    }
    const auto got = out.take();
    if (got != clean) {
      throw std::runtime_error("SEU storm corrupted the output stream");
    }
    TrialResult r;
    r.bits = 96;
    r.frames = 1;
    return r;
  };

  ResilientOptions base;
  base.max_attempts = 1;
  base.farm.threads = 1;
  const ResilientResult ref = run_resilient(10, 4242, storm, base);
  // The storm must actually bite somewhere AND spare somewhere, or the
  // scenario is vacuous.
  EXPECT_FALSE(ref.quarantined.empty());
  EXPECT_GT(ref.completed(), 0u);

  for (const int threads : {2, 5}) {
    ResilientOptions opts = base;
    opts.farm.threads = threads;
    const ResilientResult res = run_resilient(10, 4242, storm, opts);
    EXPECT_EQ(res.quarantined, ref.quarantined) << threads << " threads";
    EXPECT_EQ(res.result.agg.total(), ref.result.agg.total());
    EXPECT_EQ(res.outcomes, ref.outcomes);
  }
}

}  // namespace
}  // namespace rsp::farm
