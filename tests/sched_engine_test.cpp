// Tests for the scheduling engine: barriers, work conservation, locality /
// delay scheduling, priority and fair policies — the baseline (no SSR)
// behavior the paper's Sec. II characterizes.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/metrics/collectors.h"
#include "ssr/sched/engine.h"

namespace ssr {
namespace {

SchedConfig quick_sched() {
  SchedConfig c;
  c.locality_wait = 3.0;
  c.locality_slowdown = 5.0;
  return c;
}

/// Observer asserting barrier semantics: no task of a stage starts before
/// every parent stage has finished.
class BarrierChecker : public EngineObserver {
 public:
  void on_stage_finished(const Engine& engine, StageId stage) override {
    finish_time_[stage] = engine.sim().now();
  }
  void on_task_started(const Engine& engine, TaskId task, SlotId) override {
    const JobGraph& g = engine.graph(task.stage.job);
    for (std::uint32_t p : g.stage(task.stage.index).parents) {
      const StageId pid = g.stage_id(p);
      auto it = finish_time_.find(pid);
      ASSERT_TRUE(it != finish_time_.end())
          << "task started before parent stage finished";
      ASSERT_LE(it->second, engine.sim().now());
    }
  }

 private:
  std::map<StageId, SimTime> finish_time_;
};

TEST(Engine, SingleStageJobCompletesWithExactJct) {
  Engine engine(quick_sched(), 2, 2, 1);
  const JobId id = engine.submit(JobBuilder("one")
                                     .stage(4, fixed_duration(10.0))
                                     .build());
  engine.run();
  EXPECT_TRUE(engine.job_finished(id));
  EXPECT_DOUBLE_EQ(engine.jct(id), 10.0);
}

TEST(Engine, ChainRunsBackToBackWithLocality) {
  // Downstream tasks land on the parents' slots (free at the barrier), so no
  // locality penalty applies: JCT = 10 + 10.
  Engine engine(quick_sched(), 2, 2, 1);
  const JobId id = engine.submit(JobBuilder("chain")
                                     .stage(4, fixed_duration(10.0))
                                     .stage(4, fixed_duration(10.0))
                                     .build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.jct(id), 20.0);
}

TEST(Engine, BarrierWaitsForSlowestTask) {
  Engine engine(quick_sched(), 1, 2, 1);
  BarrierChecker checker;
  engine.add_observer(&checker);
  const JobId id = engine.submit(JobBuilder("skewed")
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 12.0})
                                     .stage(2, fixed_duration(3.0))
                                     .build());
  engine.run();
  // Phase 2 starts at 12 (barrier), both tasks local, done at 15.
  EXPECT_DOUBLE_EQ(engine.jct(id), 15.0);
}

TEST(Engine, MultiParentBarrier) {
  Engine engine(quick_sched(), 2, 2, 1);
  BarrierChecker checker;
  engine.add_observer(&checker);
  JobSpec spec = JobBuilder("join")
                     .stage_with_parents(2, fixed_duration(1.0), {})
                     .stage_with_parents(2, fixed_duration(1.0), {})
                     .stage_with_parents(4, fixed_duration(2.0), {0, 1})
                     .build();
  spec.stages[0].explicit_durations = std::vector<double>{4.0, 4.0};
  spec.stages[1].explicit_durations = std::vector<double>{9.0, 9.0};
  const JobId id = engine.submit(std::move(spec));
  engine.run();
  // Join waits for the slower scan (9), runs 2: JCT 11.
  EXPECT_DOUBLE_EQ(engine.jct(id), 11.0);
}

TEST(Engine, WorkConservingBaselineGivesSlotsAway) {
  // The Sec. II pathology: a high-priority 2-phase job loses its slots to a
  // low-priority long-task job at the barrier and must wait for them.
  Engine engine(quick_sched(), 1, 2, 1);
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(1.0)
                                     .stage(2, fixed_duration(100.0))
                                     .build());
  engine.run();
  // t=5: fg task 0 done, its slot is offered to bg (the barrier blocks fg's
  // phase 2) -> bg occupies it until t=105.  t=10: phase 1 done, but phase 2
  // only has one of its two slots left: it runs its tasks serially (10-15,
  // 15-20) instead of in parallel (10-15).  Alone, fg would finish at 15.
  EXPECT_DOUBLE_EQ(engine.jct(fg), 20.0);
  // bg's second task waits for fg to finish: starts at 20, ends 120.
  EXPECT_DOUBLE_EQ(engine.jct(bg), 119.0);
}

TEST(Engine, FreedPreferredSlotsKeepDownstreamLocal) {
  // The slots phase 1 ran on are free again at the barrier, so phase 2 runs
  // fully local even though background work grabbed the other slots.
  Engine engine(quick_sched(), 1, 4, 1);
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 6.0})
                                     .stage(2, fixed_duration(10.0))
                                     .build());
  // Background occupies slot 0 (freed at t=5) and slot 2 from t=4.5 for a
  // long time; slot 3 stays idle but is not preferred.
  engine.submit(JobBuilder("bg")
                    .submit_at(4.5)
                    .stage(2, fixed_duration(1000.0))
                    .build());
  engine.run();
  // fg phase 1 runs [5, 6] on slots 0,1; bg takes the idle slots 2,3 at
  // t=4.5 for 1000 s.  The barrier clears at 6; phase 2 prefers {0, 1},
  // both idle again -> both tasks local: JCT = 6 + 10 = 16.
  EXPECT_DOUBLE_EQ(engine.jct(fg), 16.0);
}

TEST(Engine, DelaySchedulingTimesOutOntoRemoteSlot) {
  Engine engine(quick_sched(), 1, 4, 1);
  // Phase 1 parallelism 2, phase 2 parallelism 3: the third phase-2 task has
  // no preferred slot available (slots 2,3: one taken by bg, one idle but
  // non-preferred).
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 6.0})
                                     .stage(3, fixed_duration(10.0))
                                     .build());
  engine.submit(JobBuilder("bg")
                    .submit_at(4.5)
                    .stage(1, fixed_duration(1000.0))
                    .build());
  engine.run();
  // bg takes slot 2 at 4.5.  Barrier clears at 6: tasks 0,1 land local on
  // slots 0,1 (ends 16).  Task 2 declines idle slot 3 until 6+3=9, then runs
  // remote: 9 + 50 = 59.
  EXPECT_DOUBLE_EQ(engine.jct(fg), 59.0);
}

TEST(Engine, PriorityPolicyPrefersHighPriorityPendingTasks) {
  Engine engine(quick_sched(), 1, 1, 1);
  // One slot; both jobs have two tasks.  lo grabs the slot first (it arrives
  // first), but every subsequent offer goes to hi until hi drains.
  const JobId lo = engine.submit(
      JobBuilder("lo").priority(0).stage(2, fixed_duration(10.0)).build());
  const JobId hi = engine.submit(
      JobBuilder("hi").priority(5).stage(2, fixed_duration(10.0)).build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.jct(hi), 30.0);
  EXPECT_DOUBLE_EQ(engine.jct(lo), 40.0);
}

TEST(Engine, FairPolicySplitsSlotsEvenly) {
  SchedConfig cfg = quick_sched();
  cfg.policy = SchedulingPolicy::Fair;
  Engine engine(cfg, 1, 4, 1);
  // Two map-only jobs with 8 tasks each on 4 slots.  Total work is 160
  // task-seconds: work conservation pins the makespan at exactly 40, and
  // fair sharing keeps both jobs within one task-length of each other once
  // both are active (job a gets a head start on the initially empty
  // cluster, which Spark's fair scheduler also allows).
  const JobId a = engine.submit(
      JobBuilder("a").stage(8, fixed_duration(10.0)).build());
  const JobId b = engine.submit(
      JobBuilder("b").stage(8, fixed_duration(10.0)).build());
  engine.run();
  const double makespan = std::max(engine.jct(a), engine.jct(b));
  EXPECT_DOUBLE_EQ(makespan, 40.0);
  EXPECT_GE(std::min(engine.jct(a), engine.jct(b)), 30.0);
}

TEST(Engine, FairWeightsSkewTheSplit) {
  SchedConfig cfg = quick_sched();
  cfg.policy = SchedulingPolicy::Fair;
  Engine engine(cfg, 1, 3, 1);
  // Weight 2 vs 1: job a holds 2 slots, job b holds 1.
  const JobId a = engine.submit(JobBuilder("a")
                                    .fair_weight(2.0)
                                    .stage(8, fixed_duration(10.0))
                                    .build());
  const JobId b = engine.submit(JobBuilder("b")
                                    .fair_weight(1.0)
                                    .stage(4, fixed_duration(10.0))
                                    .build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.jct(a), 40.0);
  EXPECT_DOUBLE_EQ(engine.jct(b), 40.0);
}

TEST(Engine, RunningTasksSeriesTracksRampUpAndDown) {
  Engine engine(quick_sched(), 1, 2, 1);
  RunningTasksSeries series;
  engine.add_observer(&series);
  const JobId id = engine.submit(JobBuilder("j")
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .build());
  engine.run();
  const auto& log = series.changes(id);
  ASSERT_EQ(log.size(), 4u);  // +1 +1 -1 -1
  EXPECT_EQ(log[0].second, 1);
  EXPECT_EQ(log[1].second, 2);
  EXPECT_EQ(log[2].second, 1);
  EXPECT_EQ(log[3].second, 0);
  const auto sampled = series.sampled(id, 1.0, 10.0);
  EXPECT_EQ(sampled[3].second, 2);   // t=3: both running
  EXPECT_EQ(sampled[7].second, 1);   // t=7: one left
  EXPECT_EQ(sampled[10].second, 0);  // t=10: done
}

TEST(Engine, JobsArriveAtTheirSubmitTime) {
  Engine engine(quick_sched(), 1, 1, 1);
  const JobId id = engine.submit(JobBuilder("late")
                                     .submit_at(42.0)
                                     .stage(1, fixed_duration(8.0))
                                     .build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.job_finish_time(id), 50.0);
  EXPECT_DOUBLE_EQ(engine.jct(id), 8.0);
}

TEST(Engine, ApiMisuseThrows) {
  Engine engine(quick_sched(), 1, 1, 1);
  engine.submit(JobBuilder("j").stage(1, fixed_duration(1.0)).build());
  engine.run();
  EXPECT_THROW(engine.run(), CheckError);  // run twice
  EXPECT_THROW(engine.submit(JobBuilder("k").stage(1, fixed_duration(1.0)).build()),
               CheckError);  // submit after run
  EXPECT_THROW(engine.set_reservation_hook(nullptr), CheckError);
}

TEST(Engine, TaskStatsCountLocality) {
  Engine engine(quick_sched(), 1, 2, 1);
  TaskStatsCollector stats;
  engine.add_observer(&stats);
  const JobId id = engine.submit(JobBuilder("j")
                                     .stage(2, fixed_duration(5.0))
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  engine.run();
  const JobTaskStats& s = stats.stats(id);
  EXPECT_EQ(s.tasks_started, 4u);
  EXPECT_EQ(s.tasks_finished, 4u);
  EXPECT_EQ(s.tasks_killed, 0u);
  EXPECT_EQ(s.local_starts, 4u);  // root stage counts as local
}

// --- Offer order --------------------------------------------------------------
//
// A freed slot goes to the policy-first task set that accepts it, whatever
// order the task sets became active in; delay-scheduling rejections arm the
// retry timers the submission-ordered scan armed (DESIGN.md §8).

// --- StageRuntime locality preferences ---------------------------------------

std::vector<std::uint32_t> preferred_ids(const StageRuntime& stage) {
  std::vector<std::uint32_t> out;
  for (SlotId s : stage.preferred_slots()) out.push_back(s.v);
  return out;
}

StageSpec two_task_spec() {
  StageSpec spec;
  spec.num_tasks = 2;
  return spec;
}

TEST(StageRuntimePreferences, UnsortedDuplicateInputIsSortedAndUnique) {
  const StageSpec spec = two_task_spec();
  StageRuntime stage(StageId{}, spec, 0.0, {1.0, 1.0});
  stage.set_preferred_slots({SlotId{70}, SlotId{3}, SlotId{70}, SlotId{64},
                             SlotId{3}, SlotId{0}});
  EXPECT_EQ(preferred_ids(stage), (std::vector<std::uint32_t>{0, 3, 64, 70}));
  for (std::uint32_t id : {0u, 3u, 64u, 70u}) {
    EXPECT_TRUE(stage.is_preferred(SlotId{id})) << id;
  }
  for (std::uint32_t id : {1u, 2u, 63u, 65u, 69u}) {
    EXPECT_FALSE(stage.is_preferred(SlotId{id})) << id;
  }
}

TEST(StageRuntimePreferences, IdsAboveTheHighestPreferredAreNotPreferred) {
  const StageSpec spec = two_task_spec();
  StageRuntime stage(StageId{}, spec, 0.0, {1.0, 1.0});
  stage.set_preferred_slots({SlotId{5}, SlotId{2}});
  EXPECT_TRUE(stage.is_preferred(SlotId{5}));
  for (std::uint32_t id : {6u, 63u, 64u, 128u, 1u << 20}) {
    EXPECT_FALSE(stage.is_preferred(SlotId{id})) << id;
  }
  // Replacing the preference drops the old bits.
  stage.set_preferred_slots({SlotId{1}});
  EXPECT_FALSE(stage.is_preferred(SlotId{5}));
  EXPECT_TRUE(stage.is_preferred(SlotId{1}));
}

TEST(StageRuntimePreferences, EmptyPreferenceAcceptsAnySlot) {
  const StageSpec spec = two_task_spec();
  StageRuntime stage(StageId{}, spec, 10.0, {1.0, 1.0});
  stage.set_preferred_slots({});
  EXPECT_TRUE(stage.preferred_slots().empty());
  EXPECT_FALSE(stage.is_preferred(SlotId{0}));
  EXPECT_TRUE(stage.accepts_any_slot(10.0, 3.0));

  // Contrast: with a preference the stage waits out the locality wait.
  stage.set_preferred_slots({SlotId{4}});
  EXPECT_FALSE(stage.accepts_any_slot(10.0, 3.0));
  EXPECT_TRUE(stage.accepts_any_slot(13.0, 3.0));
}

TEST(EngineOfferOrder, HigherPriorityStageActivatedLaterWinsFreedSlot) {
  Engine engine(quick_sched(), 1, 1, 1);
  engine.submit(JobBuilder("blocker").stage(1, fixed_duration(10.0)).build());
  const JobId lo = engine.submit(
      JobBuilder("lo").submit_at(1.0).stage(1, fixed_duration(5.0)).build());
  const JobId mid = engine.submit(JobBuilder("mid")
                                      .priority(1)
                                      .submit_at(2.0)
                                      .stage(1, fixed_duration(5.0))
                                      .build());
  const JobId hi = engine.submit(JobBuilder("hi")
                                     .priority(5)
                                     .submit_at(3.0)
                                     .stage(1, fixed_duration(5.0))
                                     .build());
  engine.advance_to(9.0);
  EXPECT_EQ(engine.active_stage_count(), 3u);  // all three wait for the slot
  engine.run();
  EXPECT_DOUBLE_EQ(engine.job_finish_time(hi), 15.0);
  EXPECT_DOUBLE_EQ(engine.job_finish_time(mid), 20.0);
  EXPECT_DOUBLE_EQ(engine.job_finish_time(lo), 25.0);
  EXPECT_EQ(engine.active_stage_count(), 0u);
}

/// Locality-wait fixture on one node with slots s0 (cap 1), s1 (cap 2) and
/// s2 (cap 1).  Job "h" (priority 5) runs a 1 s map on s0, then a 4-task
/// reduce that prefers s0: the reduce's first task starts on s0 at t=1, its
/// wait expires unused at t=4, and its second task starts locally on s0 at
/// t=11 — restarting the wait until t=14 with no retry timer armed.  Job
/// "lo" (priority 0) holds s1 and s2 and frees s1 at t=12.  An optional
/// job "v" (priority 9) arriving at `v_at` needs a cap-2 slot, so it can
/// only take s1.
struct LocalityWaitFixture {
  explicit LocalityWaitFixture(std::optional<SimTime> v_at)
      : engine(quick_sched(),
               {{Resources{1.0, 1.0}, Resources{2.0, 2.0}, Resources{1.0, 1.0}}},
               1) {
    h = engine.submit(JobBuilder("h")
                          .priority(5)
                          .stage(1, fixed_duration(1.0))
                          .stage(4, fixed_duration(10.0))
                          .build());
    lo = engine.submit(JobBuilder("lo")
                           .stage(4, fixed_duration(1.0))
                           .explicit_durations({12.0, 20.0, 30.0, 30.0})
                           .build());
    if (v_at) {
      v = engine.submit(JobBuilder("v")
                            .priority(9)
                            .submit_at(*v_at)
                            .stage(1, fixed_duration(5.0))
                            .demand(Resources{2.0, 2.0})
                            .build());
    }
  }
  const StageRuntime& reduce() const {
    return *engine.stage_runtime(engine.graph(h).stage_id(1));
  }

  Engine engine;
  JobId h, lo, v;
};

TEST(EngineOfferOrder, LocalityBlockedStageIsPassedOverAndArmed) {
  LocalityWaitFixture f(std::nullopt);
  f.engine.advance_to(11.5);
  ASSERT_EQ(f.reduce().running_originals(), 1u);
  ASSERT_EQ(f.reduce().pending_count(), 2u);
  EXPECT_FALSE(f.reduce().retry_timer_armed());
  // s1 frees at t=12: the reduce outranks "lo" but must wait for locality,
  // so "lo" takes the slot and the reduce's rejection arms its retry.
  f.engine.advance_to(12.0);
  EXPECT_EQ(f.engine.running_tasks_of(f.lo), 2u);
  EXPECT_EQ(f.reduce().pending_count(), 2u);
  EXPECT_TRUE(f.reduce().retry_timer_armed());
  f.engine.run();
  EXPECT_TRUE(f.engine.job_finished(f.h));
}

TEST(EngineOfferOrder, RetryArmFollowsActivationOrderWhenOutranked) {
  // "v" wins s1 at t=12 either way.  The reduce is armed only when "v" was
  // activated after it: then, in activation order, the reduce was visited
  // before any acceptor that outranks it ("lo" accepts but ranks lower).
  for (const auto& [v_at, armed] : {std::pair{11.5, true},
                                    std::pair{0.5, false}}) {
    SCOPED_TRACE("v arrives at " + std::to_string(v_at));
    LocalityWaitFixture f(v_at);
    f.engine.advance_to(12.0);
    EXPECT_EQ(f.engine.running_tasks_of(f.v), 1u);
    EXPECT_EQ(f.reduce().pending_count(), 2u);
    EXPECT_EQ(f.reduce().retry_timer_armed(), armed);
    f.engine.run();
    EXPECT_TRUE(f.engine.job_finished(f.h));
  }
}

TEST(EngineOfferOrder, FairShareReKeysWhenRunningTasksRise) {
  SchedConfig cfg = quick_sched();
  cfg.policy = SchedulingPolicy::Fair;
  Engine engine(cfg, 1, 2, 1);
  engine.submit(JobBuilder("blocker")
                    .stage(2, fixed_duration(1.0))
                    .explicit_durations({10.0, 20.0})
                    .build());
  const JobId a = engine.submit(
      JobBuilder("a").submit_at(1.0).stage(4, fixed_duration(100.0)).build());
  const JobId b = engine.submit(
      JobBuilder("b").submit_at(1.0).stage(4, fixed_duration(100.0)).build());
  // t=10: both shares are 0, so the job-id tie-break hands "a" the slot.
  engine.advance_to(10.0);
  EXPECT_EQ(engine.running_tasks_of(a), 1u);
  EXPECT_EQ(engine.running_tasks_of(b), 0u);
  // t=20: "a" now holds a share of 1 and must lose to "b".
  engine.advance_to(20.0);
  EXPECT_EQ(engine.running_tasks_of(a), 1u);
  EXPECT_EQ(engine.running_tasks_of(b), 1u);
  engine.run();
}

TEST(EngineOfferOrder, StageResurrectedTwiceInOneNodeFailureIsIndexedOnce) {
  Engine engine(quick_sched(), 2, 2, 1);
  const JobId id = engine.submit(JobBuilder("j")
                                     .stage(4, fixed_duration(10.0))
                                     .stage(4, fixed_duration(100.0))
                                     .build());
  engine.advance_to(20.0);
  ASSERT_EQ(engine.active_stage_count(), 0u);  // the reduce fills all slots
  // Node 0 holds two reduce attempts and two map outputs: the failure
  // re-queues two tasks of each stage, one slot at a time.
  engine.fail_node(NodeId{0});
  const StageRuntime& map = *engine.stage_runtime(engine.graph(id).stage_id(0));
  const StageRuntime& reduce =
      *engine.stage_runtime(engine.graph(id).stage_id(1));
  EXPECT_EQ(map.pending_count(), 2u);
  EXPECT_EQ(reduce.pending_count(), 2u);
  EXPECT_EQ(engine.active_stage_count(), 2u);
  engine.recover_node(NodeId{0});
  engine.run();
  EXPECT_TRUE(engine.job_finished(id));
  EXPECT_EQ(engine.active_stage_count(), 0u);
}

TEST(EngineOfferOrder, NonPositiveFairWeightIsRejected) {
  Engine engine(quick_sched(), 1, 1, 1);
  JobSpec spec = JobBuilder("j").stage(1, fixed_duration(1.0)).build();
  spec.fair_weight = 0.0;
  EXPECT_THROW(engine.submit(std::move(spec)), CheckError);
}

}  // namespace
}  // namespace ssr
