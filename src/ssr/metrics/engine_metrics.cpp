#include "ssr/metrics/engine_metrics.h"

#include <utility>

#include "ssr/sched/engine.h"
#include "ssr/sched/virtual_cluster.h"

namespace ssr {

std::vector<double> default_duration_bounds() {
  return {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0};
}

EngineMetrics::JobSeries EngineMetrics::resolve_job_series(MetricGroup group) {
  // Resolution order is creation order, which is export order.
  JobSeries s;
  s.jobs_submitted = &group.counter("jobs_submitted");
  s.jobs_finished = &group.counter("jobs_finished");
  s.tasks_started = &group.counter("tasks_started");
  s.tasks_finished = &group.counter("tasks_finished");
  s.tasks_killed = &group.counter("tasks_killed");
  s.tasks_failed = &group.counter("tasks_failed");
  s.tasks_requeued = &group.counter("tasks_requeued");
  s.task_duration =
      &group.histogram("task_duration_seconds", default_duration_bounds());
  s.jct = &group.histogram("jct_seconds", default_duration_bounds());
  return s;
}

EngineMetrics::EngineMetrics(MetricsRegistry& registry, std::string policy)
    : registry_(registry), policy_(std::move(policy)) {
  MetricGroup g = registry_.group({{"policy", policy_}});
  series_ = resolve_job_series(g);
  stages_submitted_ = &g.counter("stages_submitted");
  stages_finished_ = &g.counter("stages_finished");
  stages_invalidated_ = &g.counter("stages_invalidated");
  slots_failed_ = &g.counter("slots_failed");
  slots_recovered_ = &g.counter("slots_recovered");
  reservations_made_ = &g.counter("reservations_made");
  reservations_expired_ = &g.counter("reservations_expired");
  reservations_released_ = &g.counter("reservations_released");
  reservations_broken_ = &g.counter("reservations_broken");
  makespan_ = &g.gauge("makespan_seconds");
  utilization_ = &g.gauge("utilization");
}

void EngineMetrics::on_job_submitted(const Engine&, JobId job) {
  series_.jobs_submitted->inc();
  const JobSeries* tenant = nullptr;
  if (tenant_of_) {
    if (const std::string* name = tenant_of_(job)) {
      auto it = tenants_.find(*name);
      if (it == tenants_.end()) {
        it = tenants_
                 .emplace(*name, resolve_job_series(registry_.group(
                                     {{"policy", policy_}, {"tenant", *name}})))
                 .first;
      }
      tenant = &it->second;
    }
  }
  if (job.v >= job_tenant_.size()) job_tenant_.resize(job.v + 1, nullptr);
  job_tenant_[job.v] = tenant;
  if (tenant != nullptr) tenant->jobs_submitted->inc();
}

void EngineMetrics::on_job_finished(const Engine& engine, JobId job) {
  series_.jobs_finished->inc();
  const double jct = engine.sim().now() - engine.graph(job).submit_time();
  series_.jct->observe(jct);
  if (const JobSeries* t = tenant_series(job)) {
    t->jobs_finished->inc();
    t->jct->observe(jct);
  }
}

void EngineMetrics::on_stage_submitted(const Engine&, StageId) {
  stages_submitted_->inc();
}

void EngineMetrics::on_stage_finished(const Engine&, StageId) {
  stages_finished_->inc();
}

void EngineMetrics::on_task_started(const Engine& engine, TaskId task,
                                    SlotId slot) {
  series_.tasks_started->inc();
  running_.start(slot, task, engine.sim().now());
  if (const JobSeries* t = tenant_series(task.stage.job)) {
    t->tasks_started->inc();
  }
}

void EngineMetrics::on_task_finished(const Engine& engine, TaskId task,
                                     SlotId slot) {
  series_.tasks_finished->inc();
  const JobSeries* t = tenant_series(task.stage.job);
  if (const std::optional<SimTime> start = running_.end(slot, task)) {
    const double duration = engine.sim().now() - *start;
    series_.task_duration->observe(duration);
    if (t != nullptr) t->task_duration->observe(duration);
  }
  if (t != nullptr) t->tasks_finished->inc();
}

void EngineMetrics::on_task_killed(const Engine&, TaskId task, SlotId slot) {
  series_.tasks_killed->inc();
  running_.end(slot, task);
  if (const JobSeries* t = tenant_series(task.stage.job)) {
    t->tasks_killed->inc();
  }
}

void EngineMetrics::on_task_failed(const Engine&, TaskId task, SlotId slot) {
  series_.tasks_failed->inc();
  running_.end(slot, task);
  if (const JobSeries* t = tenant_series(task.stage.job)) {
    t->tasks_failed->inc();
  }
}

void EngineMetrics::on_task_requeued(const Engine&, TaskId task) {
  series_.tasks_requeued->inc();
  if (const JobSeries* t = tenant_series(task.stage.job)) {
    t->tasks_requeued->inc();
  }
}

void EngineMetrics::on_stage_invalidated(const Engine&, StageId) {
  stages_invalidated_->inc();
}

void EngineMetrics::on_slot_failed(const Engine&, SlotId) {
  slots_failed_->inc();
}

void EngineMetrics::on_slot_recovered(const Engine&, SlotId) {
  slots_recovered_->inc();
}

void EngineMetrics::on_slot_reserved(const Engine&, SlotId,
                                     const Reservation&) {
  reservations_made_->inc();
}

void EngineMetrics::on_reservation_released(const Engine&, SlotId,
                                            ReservationEndReason reason) {
  switch (reason) {
    case ReservationEndReason::Expired:
      reservations_expired_->inc();
      break;
    case ReservationEndReason::Released:
      reservations_released_->inc();
      break;
    case ReservationEndReason::SlotFailed:
      reservations_broken_->inc();
      break;
  }
}

void EngineMetrics::on_run_complete(const Engine& engine) {
  makespan_->set(engine.sim().now());
  utilization_->set(engine.cluster().utilization(engine.sim().now()));
}

void record_recovery(MetricsRegistry& registry, const RecoveryStats& stats,
                     const std::string& policy) {
  MetricGroup g = registry.group({{"policy", policy}});
  g.counter("recovery_slots_failed").inc(stats.slots_failed);
  g.counter("recovery_slots_recovered").inc(stats.slots_recovered);
  g.counter("recovery_tasks_failed").inc(stats.tasks_failed);
  g.counter("recovery_tasks_requeued").inc(stats.tasks_requeued);
  g.counter("recovery_failures_masked").inc(stats.failures_masked);
  g.counter("recovery_stages_invalidated").inc(stats.stages_invalidated);
  g.counter("recovery_reservations_broken").inc(stats.reservations_broken);
}

void record_tenant_stats(MetricsRegistry& registry,
                         const VirtualClusterManager& vcm) {
  for (const std::string& name : vcm.tenant_names()) {
    const VirtualClusterSpec& shares = vcm.spec(name);
    const TenantStats& stats = vcm.stats(name);
    MetricGroup g = registry.group({{"tenant", name}});
    g.gauge("min_slots").set(shares.min_slots);
    g.gauge("max_slots").set(shares.max_slots);
    g.counter("jobs_submitted_total").inc(stats.submitted);
    g.counter("jobs_admitted_total").inc(stats.admitted);
    g.counter("jobs_rejected_total").inc(stats.rejected);
    g.counter("jobs_completed_total").inc(stats.completed);
    g.counter("jobs_queued_total").inc(stats.queued_total);
    g.gauge("peak_demand_slots").set(stats.peak_demand_in_flight);
    g.gauge("mean_queue_delay_seconds").set(stats.mean_queue_delay());
    g.gauge("max_queue_delay_seconds").set(stats.max_queue_delay);
    g.gauge("mean_jct_seconds").set(stats.mean_jct());
  }
}

}  // namespace ssr
