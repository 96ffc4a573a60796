// Bit-identical RunResult reconstruction from a trace capture.
//
// ReplayResultBuilder consumes a captured observer stream
// (metrics/trace_capture.h) and rebuilds the RunResult the live harness
// produced — without an Engine and without re-simulating.  Bit-identity
// (digest byte-equality, not approximate equality) holds because every
// accumulator mirrors its live counterpart's arithmetic and evaluation
// order exactly:
//
//   * slot time accounting replays Cluster::accrue verbatim — per-slot
//     elapsed = now - state_since accumulators, advanced at precisely the
//     cluster transitions the observer events mark, settled in ascending
//     slot-id order at run completion (Engine::drain's settle);
//   * per-job busy seconds and task counters replay TaskStatsCollector's
//     event-order accumulation (in-flight attempts keyed by slot, stats
//     indexed by JobId, totals folded in ascending job order);
//   * recovery counters replay RecoveryStatsCollector's failed-pending set
//     logic;
//   * reservations_expired counts Expired-reason releases, which equals
//     ReservationManager::reservations_expired() (the manager erases its
//     record before self-initiated releases, so only engine expiry releases
//     reach its on_slot_idle reconciliation) — reconstructed only when the
//     capture header says a manager was installed;
//   * job rows come out in ascending dense JobId order, which is submission
//     order for both the closed and the open harness.
//
// Not reconstructed: RunResult::tenants (the VirtualClusterManager's
// admission ledger sees rejected submissions that never reach the engine's
// observer seam; the capture records admitted work only).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "ssr/exp/scenario.h"
#include "ssr/metrics/collectors.h"
#include "ssr/metrics/trace_capture.h"

namespace ssr {

class ReplayResultBuilder : public TraceConsumer {
 public:
  void on_trace_begin(const TraceHeader& header) override;
  void on_trace_event(const TraceEvent& event) override;

  /// True once the capture's kRunComplete event was consumed.
  bool complete() const { return complete_; }

  /// The reconstructed result; valid only when complete().
  const RunResult& result() const;

 private:
  struct SlotMirror {
    // Mirrors Slot's accounting fields one-for-one (sim/cluster.h).
    int state = 0;  ///< 0 Idle, 1 Busy, 2 ReservedIdle, 3 Dead
    SimTime state_since = 0.0;
    double busy = 0.0;
    double reserved_idle = 0.0;
    double dead = 0.0;
    JobId reserved_job;  ///< valid while state == ReservedIdle
  };
  struct JobMirror {
    std::string name;
    int priority = 0;
    SimTime submit = 0.0;
    SimTime finish = 0.0;
  };

  void accrue(SlotMirror& s, SimTime now);
  SlotMirror& slot_mirror(SlotId slot);
  JobTaskStats& job_stats(JobId job);
  void record_busy(TaskId task, SlotId slot, SimTime now);
  void finalize(SimTime now);

  TraceHeader header_;
  bool complete_ = false;
  RunResult result_;

  std::vector<SlotMirror> slots_;
  /// Mirrors Cluster::reserved_idle_by_job_ (accumulation order preserved:
  /// the same accrue calls happen at the same event points).
  std::unordered_map<JobId, double> reserved_idle_by_job_;
  std::map<JobId, JobMirror> jobs_;
  /// TaskStatsCollector mirror (indexed by JobId).
  std::vector<JobTaskStats> task_stats_;
  RunningAttempts running_;
  /// RecoveryStatsCollector mirror.
  RecoveryStats recovery_;
  std::set<std::tuple<JobId, std::uint32_t, std::uint32_t>> failed_pending_;
  std::uint64_t expired_releases_ = 0;
};

/// Convenience: replay a whole capture into a RunResult in one call.
RunResult replay_run_result(const TraceReplayer& replayer);

}  // namespace ssr
