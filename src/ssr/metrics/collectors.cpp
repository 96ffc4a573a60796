#include "ssr/metrics/collectors.h"

#include <algorithm>

#include "ssr/common/check.h"
#include "ssr/sched/engine.h"

namespace ssr {

// --- RunningTasksSeries -------------------------------------------------------

void RunningTasksSeries::record(const Engine& engine, JobId job, int delta) {
  int& cur = current_[job];
  cur += delta;
  SSR_CHECK_MSG(cur >= 0, "running task count went negative");
  changes_[job].emplace_back(engine.sim().now(), cur);
}

void RunningTasksSeries::on_task_started(const Engine& engine, TaskId task,
                                         SlotId) {
  record(engine, task.stage.job, +1);
}

void RunningTasksSeries::on_task_finished(const Engine& engine, TaskId task,
                                          SlotId) {
  record(engine, task.stage.job, -1);
}

void RunningTasksSeries::on_task_killed(const Engine& engine, TaskId task,
                                        SlotId) {
  record(engine, task.stage.job, -1);
}

void RunningTasksSeries::on_task_failed(const Engine& engine, TaskId task,
                                        SlotId) {
  record(engine, task.stage.job, -1);
}

const std::vector<std::pair<SimTime, int>>& RunningTasksSeries::changes(
    JobId job) const {
  static const std::vector<std::pair<SimTime, int>> kEmpty;
  auto it = changes_.find(job);
  return it == changes_.end() ? kEmpty : it->second;
}

std::vector<std::pair<SimTime, int>> RunningTasksSeries::sampled(
    JobId job, SimDuration dt, SimTime horizon) const {
  SSR_CHECK_MSG(dt > 0.0, "sampling interval must be positive");
  const auto& log = changes(job);
  std::vector<std::pair<SimTime, int>> out;
  std::size_t i = 0;
  int value = 0;
  for (SimTime t = 0.0; t <= horizon + 1e-9; t += dt) {
    while (i < log.size() && log[i].first <= t) value = log[i++].second;
    out.emplace_back(t, value);
  }
  return out;
}

// --- RunningAttempts ----------------------------------------------------------

void RunningAttempts::start(SlotId slot, TaskId task, SimTime now) {
  if (slot.v >= by_slot_.size()) by_slot_.resize(slot.v + 1);
  by_slot_[slot.v] = Entry{task, now, true};
}

std::optional<SimTime> RunningAttempts::end(SlotId slot, TaskId task) {
  if (slot.v >= by_slot_.size()) return std::nullopt;
  Entry& e = by_slot_[slot.v];
  if (!e.running || e.task != task) return std::nullopt;
  e.running = false;
  return e.start;
}

// --- TaskStatsCollector --------------------------------------------------------

JobTaskStats& TaskStatsCollector::job_stats(JobId job) {
  if (job.v >= by_job_.size()) by_job_.resize(job.v + 1);
  return by_job_[job.v];
}

void TaskStatsCollector::on_task_started(const Engine& engine, TaskId task,
                                         SlotId slot) {
  JobTaskStats& s = job_stats(task.stage.job);
  ++s.tasks_started;
  running_.start(slot, task, engine.sim().now());
  if (task.attempt >= 1) ++s.copies_started;
  const StageRuntime* rt = engine.stage_runtime(task.stage);
  if (rt != nullptr && task.attempt == 0 && task.index < rt->parallelism() &&
      rt->original(task.index).local) {
    ++s.local_starts;
  }
}

void TaskStatsCollector::on_task_finished(const Engine& engine, TaskId task,
                                          SlotId slot) {
  record_busy(engine, task, slot);
  JobTaskStats& s = job_stats(task.stage.job);
  ++s.tasks_finished;
  if (task.attempt >= 1) ++s.copies_won;
}

void TaskStatsCollector::on_task_killed(const Engine& engine, TaskId task,
                                        SlotId slot) {
  record_busy(engine, task, slot);
  ++job_stats(task.stage.job).tasks_killed;
}

void TaskStatsCollector::on_task_failed(const Engine& engine, TaskId task,
                                        SlotId slot) {
  record_busy(engine, task, slot);
  ++job_stats(task.stage.job).tasks_failed;
}

void TaskStatsCollector::record_busy(const Engine& engine, TaskId task,
                                     SlotId slot) {
  const std::optional<SimTime> start = running_.end(slot, task);
  SSR_CHECK_MSG(start.has_value(), "attempt ended without a start");
  job_stats(task.stage.job).busy_seconds += engine.sim().now() - *start;
}

const JobTaskStats& TaskStatsCollector::stats(JobId job) const {
  static const JobTaskStats kEmpty;
  return job.v < by_job_.size() ? by_job_[job.v] : kEmpty;
}

JobTaskStats TaskStatsCollector::totals() const {
  JobTaskStats t;
  for (const JobTaskStats& s : by_job_) {
    t.tasks_started += s.tasks_started;
    t.tasks_finished += s.tasks_finished;
    t.tasks_killed += s.tasks_killed;
    t.tasks_failed += s.tasks_failed;
    t.copies_started += s.copies_started;
    t.copies_won += s.copies_won;
    t.local_starts += s.local_starts;
    t.busy_seconds += s.busy_seconds;
  }
  return t;
}

// --- RecoveryStatsCollector -----------------------------------------------------

namespace {

std::tuple<JobId, std::uint32_t, std::uint32_t> logical_task(TaskId task) {
  return {task.stage.job, task.stage.index, task.index};
}

}  // namespace

void RecoveryStatsCollector::on_task_failed(const Engine&, TaskId task,
                                            SlotId) {
  ++stats_.tasks_failed;
  failed_pending_.insert(logical_task(task));
}

void RecoveryStatsCollector::on_task_requeued(const Engine&, TaskId task) {
  ++stats_.tasks_requeued;
  failed_pending_.erase(logical_task(task));
}

void RecoveryStatsCollector::on_task_finished(const Engine&, TaskId task,
                                              SlotId) {
  // A finish of a logical task with an open failed attempt: the surviving
  // twin completed the work, so the failure was masked without a re-run.
  if (failed_pending_.erase(logical_task(task)) > 0) {
    ++stats_.failures_masked;
  }
}

void RecoveryStatsCollector::on_stage_invalidated(const Engine&, StageId) {
  ++stats_.stages_invalidated;
}

void RecoveryStatsCollector::on_slot_failed(const Engine&, SlotId) {
  ++stats_.slots_failed;
}

void RecoveryStatsCollector::on_slot_recovered(const Engine&, SlotId) {
  ++stats_.slots_recovered;
}

void RecoveryStatsCollector::on_reservation_released(
    const Engine&, SlotId, ReservationEndReason reason) {
  if (reason == ReservationEndReason::SlotFailed) {
    ++stats_.reservations_broken;
  }
}

// --- JctCollector ---------------------------------------------------------------

void JctCollector::on_job_finished(const Engine& engine, JobId job) {
  JobCompletion rec;
  rec.job = job;
  rec.name = engine.job_name(job);
  rec.priority = engine.graph(job).priority();
  rec.submit = engine.graph(job).submit_time();
  rec.finish = engine.sim().now();
  records_.push_back(std::move(rec));
}

std::vector<double> JctCollector::jcts_named(const std::string& name) const {
  std::vector<double> out;
  for (const auto& r : records_) {
    if (r.name == name) out.push_back(r.jct());
  }
  return out;
}

double JctCollector::mean_jct_with_priority_at_least(int priority) const {
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.priority >= priority) {
      acc += r.jct();
      ++n;
    }
  }
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

double JctCollector::mean_jct_with_priority_below(int priority) const {
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.priority < priority) {
      acc += r.jct();
      ++n;
    }
  }
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

}  // namespace ssr
