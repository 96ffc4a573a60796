// Metrics collectors: EngineObservers that record what the paper's
// evaluation plots — running-task counts over time (Figs. 5, 13), per-job
// task statistics (locality fractions, straggler copies), and job
// completion times.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/sched/types.h"

namespace ssr {

/// Records, for every job, the number of running tasks as a step function of
/// time.  Attach only in small-scale timeline experiments; the change log is
/// proportional to the number of task events.
class RunningTasksSeries : public EngineObserver {
 public:
  void on_task_started(const Engine&, TaskId, SlotId) override;
  void on_task_finished(const Engine&, TaskId, SlotId) override;
  void on_task_killed(const Engine&, TaskId, SlotId) override;
  void on_task_failed(const Engine&, TaskId, SlotId) override;

  /// Step-change log for one job: (time, running count after the change).
  const std::vector<std::pair<SimTime, int>>& changes(JobId job) const;

  /// Piecewise-constant value sampled every `dt` over [0, horizon].
  std::vector<std::pair<SimTime, int>> sampled(JobId job, SimDuration dt,
                                               SimTime horizon) const;

 private:
  void record(const Engine& engine, JobId job, int delta);

  std::map<JobId, int> current_;
  std::map<JobId, std::vector<std::pair<SimTime, int>>> changes_;
};

/// In-flight attempts keyed by the slot running them.  A slot runs at most
/// one attempt at a time (Slot::running_task_), so the dense slot id keys
/// every attempt between its start and its end callback; the end callback
/// names the attempt, which is checked against the one the slot holds.
class RunningAttempts {
 public:
  void start(SlotId slot, TaskId task, SimTime now);
  /// Start time of `task` if `slot` is running it (and marks the slot
  /// empty); nullopt when the slot runs nothing or a different attempt.
  std::optional<SimTime> end(SlotId slot, TaskId task);

 private:
  struct Entry {
    TaskId task;
    SimTime start = 0.0;
    bool running = false;
  };
  std::vector<Entry> by_slot_;
};

/// Per-job aggregate task statistics.
struct JobTaskStats {
  std::uint64_t tasks_started = 0;
  std::uint64_t tasks_finished = 0;  ///< winning attempts only
  std::uint64_t tasks_killed = 0;    ///< losing straggler-race attempts
  std::uint64_t tasks_failed = 0;    ///< attempts that died with their slot
  std::uint64_t copies_started = 0;  ///< attempts with attempt id >= 1
  std::uint64_t copies_won = 0;      ///< copies that beat their original
  std::uint64_t local_starts = 0;    ///< attempts launched with data locality
  /// Busy slot-seconds the job's attempts occupied (finished and killed).
  double busy_seconds = 0.0;
};

class TaskStatsCollector : public EngineObserver {
 public:
  void on_task_started(const Engine&, TaskId, SlotId) override;
  void on_task_finished(const Engine&, TaskId, SlotId) override;
  void on_task_killed(const Engine&, TaskId, SlotId) override;
  void on_task_failed(const Engine&, TaskId, SlotId) override;

  const JobTaskStats& stats(JobId job) const;
  /// Folds the jobs in ascending id order.
  JobTaskStats totals() const;

 private:
  JobTaskStats& job_stats(JobId job);
  void record_busy(const Engine& engine, TaskId task, SlotId slot);

  /// Indexed by JobId (dense); jobs without events stay all-zero.
  std::vector<JobTaskStats> by_job_;
  /// Start times of in-flight attempts, to attribute busy slot-seconds.
  RunningAttempts running_;
};

/// Job completion records, in finish order.
struct JobCompletion {
  JobId job;
  std::string name;
  int priority = 0;
  SimTime submit = 0.0;
  SimTime finish = 0.0;
  SimDuration jct() const { return finish - submit; }
};

/// Fault-injection and recovery counters (DESIGN.md §9).
struct RecoveryStats {
  std::uint64_t slots_failed = 0;      ///< fail transitions applied to slots
  std::uint64_t slots_recovered = 0;   ///< Dead -> Idle transitions
  std::uint64_t tasks_failed = 0;      ///< attempts killed by slot death
  std::uint64_t tasks_requeued = 0;    ///< logical tasks re-queued to re-run
  std::uint64_t failures_masked = 0;   ///< failed attempts whose twin won
  std::uint64_t stages_invalidated = 0;  ///< finished stages re-opened
  std::uint64_t reservations_broken = 0;  ///< reservations ended by slot death
};

class RecoveryStatsCollector : public EngineObserver {
 public:
  void on_task_failed(const Engine&, TaskId, SlotId) override;
  void on_task_requeued(const Engine&, TaskId) override;
  void on_task_finished(const Engine&, TaskId, SlotId) override;
  void on_stage_invalidated(const Engine&, StageId) override;
  void on_slot_failed(const Engine&, SlotId) override;
  void on_slot_recovered(const Engine&, SlotId) override;
  void on_reservation_released(const Engine&, SlotId,
                               ReservationEndReason) override;

  const RecoveryStats& stats() const { return stats_; }

 private:
  RecoveryStats stats_;
  /// Logical tasks ((job, stage, index) via TaskId with attempt erased) with
  /// a failed attempt whose fate is still open: a requeue counts the failure
  /// as recovered-by-rerun, a finish counts it as masked by a live twin.
  std::set<std::tuple<JobId, std::uint32_t, std::uint32_t>> failed_pending_;
};

class JctCollector : public EngineObserver {
 public:
  void on_job_finished(const Engine& engine, JobId job) override;

  const std::vector<JobCompletion>& completions() const { return records_; }

  /// JCTs of every job whose name matches `name` exactly.
  std::vector<double> jcts_named(const std::string& name) const;

  /// Mean JCT over jobs whose priority is >= / < the given split point.
  double mean_jct_with_priority_at_least(int priority) const;
  double mean_jct_with_priority_below(int priority) const;

 private:
  std::vector<JobCompletion> records_;
};

}  // namespace ssr
