// Registry wiring for the scheduling engine.
//
// EngineMetrics is the EngineObserver that feeds a MetricsRegistry from the
// live event stream.  Every series carries a {policy=<name>} label group, so
// reports from different scheduler configurations (nossr / ssr / carve-out)
// stay separable in one registry; when a tenant resolver is installed (the
// VirtualClusterManager's tenant_of), job- and task-level series are
// additionally recorded under {policy, tenant} label groups, which is what
// the per-tenant isolation dashboards aggregate.
//
// Two free functions close the loop on state that is not event-shaped:
// record_recovery() snapshots the RecoveryStats counters and
// record_tenant_stats() the VirtualClusterManager's admission ledger into
// gauge/counter series at end of run.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ssr/common/ids.h"
#include "ssr/common/time.h"
#include "ssr/metrics/collectors.h"
#include "ssr/metrics/registry.h"
#include "ssr/sched/types.h"

namespace ssr {

class VirtualClusterManager;

/// Default duration-histogram bounds (seconds): exponential 0.5 .. 512.
std::vector<double> default_duration_bounds();

class EngineMetrics : public EngineObserver {
 public:
  /// Series are created eagerly (so an empty run still exports a complete,
  /// all-zero document) under the {policy=`policy`} label group, and the
  /// observer keeps handles to them: callbacks do no registry lookups.
  EngineMetrics(MetricsRegistry& registry, std::string policy);

  /// Resolve an admitted job to its tenant; nullptr = unmetered.  Called
  /// once per job, at on_job_submitted, so install it before the engine
  /// starts stepping (VirtualClusterManager::tenant_of is the canonical
  /// resolver; it records the tenant before the job's arrival fires).
  void set_tenant_resolver(
      std::function<const std::string*(JobId)> resolver) {
    tenant_of_ = std::move(resolver);
  }

  void on_job_submitted(const Engine& engine, JobId job) override;
  void on_job_finished(const Engine& engine, JobId job) override;
  void on_stage_submitted(const Engine& engine, StageId stage) override;
  void on_stage_finished(const Engine& engine, StageId stage) override;
  void on_task_started(const Engine& engine, TaskId task, SlotId slot) override;
  void on_task_finished(const Engine& engine, TaskId task,
                        SlotId slot) override;
  void on_task_killed(const Engine& engine, TaskId task, SlotId slot) override;
  void on_task_failed(const Engine& engine, TaskId task, SlotId slot) override;
  void on_task_requeued(const Engine& engine, TaskId task) override;
  void on_stage_invalidated(const Engine& engine, StageId stage) override;
  void on_slot_failed(const Engine& engine, SlotId slot) override;
  void on_slot_recovered(const Engine& engine, SlotId slot) override;
  void on_slot_reserved(const Engine& engine, SlotId slot,
                        const Reservation& reservation) override;
  void on_reservation_released(const Engine& engine, SlotId slot,
                               ReservationEndReason reason) override;
  void on_run_complete(const Engine& engine) override;

 private:
  /// Handles into one label group's job- and task-level series.
  struct JobSeries {
    Counter* jobs_submitted = nullptr;
    Counter* jobs_finished = nullptr;
    Counter* tasks_started = nullptr;
    Counter* tasks_finished = nullptr;
    Counter* tasks_killed = nullptr;
    Counter* tasks_failed = nullptr;
    Counter* tasks_requeued = nullptr;
    Histogram* task_duration = nullptr;
    Histogram* jct = nullptr;
  };
  static JobSeries resolve_job_series(MetricGroup group);

  /// Tenant series of `job` (resolved at its submission), or nullptr.
  const JobSeries* tenant_series(JobId job) const {
    return job.v < job_tenant_.size() ? job_tenant_[job.v] : nullptr;
  }

  MetricsRegistry& registry_;
  std::string policy_;
  // Every policy series is resolved once, at construction.
  JobSeries series_;
  Counter* stages_submitted_ = nullptr;
  Counter* stages_finished_ = nullptr;
  Counter* stages_invalidated_ = nullptr;
  Counter* slots_failed_ = nullptr;
  Counter* slots_recovered_ = nullptr;
  Counter* reservations_made_ = nullptr;
  Counter* reservations_expired_ = nullptr;
  Counter* reservations_released_ = nullptr;
  Counter* reservations_broken_ = nullptr;
  Gauge* makespan_ = nullptr;
  Gauge* utilization_ = nullptr;

  std::function<const std::string*(JobId)> tenant_of_;
  /// {policy, tenant} series, resolved when a tenant's first job arrives.
  std::unordered_map<std::string, JobSeries> tenants_;
  /// Indexed by JobId (dense); nullptr = unmetered.
  std::vector<const JobSeries*> job_tenant_;
  /// In-flight attempts (task-duration histogram).
  RunningAttempts running_;
};

/// Snapshot the fault-injection outcome counters under {policy=`policy`}.
void record_recovery(MetricsRegistry& registry, const RecoveryStats& stats,
                     const std::string& policy);

/// Snapshot every tenant's admission/SLO ledger under {tenant=<name>} label
/// groups (shares, admission counts, queue delays, peak demand).
void record_tenant_stats(MetricsRegistry& registry,
                         const VirtualClusterManager& vcm);

}  // namespace ssr
