// Seeded inputs of the three benchmark workloads.  Only the generated job
// specs (plus the cluster shape and run options) reach the engine; the seed
// given on the command line is the single source of variation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ssr/common/time.h"
#include "ssr/dag/job.h"
#include "ssr/exp/open_scenario.h"
#include "ssr/exp/scenario.h"
#include "ssr/workload/open_arrival.h"

namespace perfbench {

enum class Workload { kTrace10kSsr, kOpenTenants, kChaosReplay };

/// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload w);

/// True for workloads stepped through admission control one arrival at a
/// time; false for closed batches submitted up front.
inline bool is_open(Workload w) { return w == Workload::kOpenTenants; }

/// Events one step of a closed workload processes (at least; a step ends on
/// an event instant).  A fixed simulated window would not do: the closed
/// traces have Pareto task durations, so most of a 70k-sim-s makespan is a
/// sparse tail where a 60 s window holds a handful of events.
inline constexpr std::size_t kClosedStepEvents = 512;

/// Priority of the foreground jobs whose JCTs the fg_jct_* metrics report.
inline constexpr int kForegroundPriority = 10;

struct Inputs {
  ssr::ClusterSpec cluster;
  ssr::RunOptions options;
  /// Closed workloads: every job, submitted up front in this order.
  std::vector<ssr::JobSpec> jobs;
  /// Open workload: tenant shares and the time-sorted arrival stream.
  ssr::OpenScenarioSpec tenants;
  std::vector<ssr::OpenArrival> arrivals;
  /// Jobs (= operations) and tasks in the generated specs.
  std::uint64_t num_jobs = 0;
  std::uint64_t num_tasks = 0;
};

/// Generates a workload's inputs.  `scale` divides cluster and job counts
/// (1 = the benchmark size; larger values give the quick shapes the
/// self-test uses).  `capture_path` is where chaos_replay writes its trace
/// capture; the other workloads ignore it.
Inputs make_inputs(Workload w, std::uint64_t seed, std::uint32_t scale,
                   const std::string& capture_path);

}  // namespace perfbench
