#include "workloads.h"

#include <algorithm>
#include <utility>

#include "ssr/sim/failure_injector.h"
#include "ssr/workload/sqlbench.h"
#include "ssr/workload/tracegen.h"

namespace perfbench {

using namespace ssr;

namespace {

std::uint32_t scaled(std::uint32_t value, std::uint32_t scale) {
  return std::max<std::uint32_t>(1, value / scale);
}

std::uint64_t count_tasks(const JobSpec& spec) {
  std::uint64_t tasks = 0;
  for (const StageSpec& stage : spec.stages) tasks += stage.num_tasks;
  return tasks;
}

RunOptions ssr_options(std::uint64_t seed) {
  RunOptions o;
  o.sched.locality_wait = 3.0;
  o.sched.locality_slowdown = 5.0;
  o.seed = seed;
  o.ssr = SsrConfig{};
  o.ssr->min_reserving_priority = 1;
  return o;
}

// Background trace + 40 priority-10 SQL queries: the sched_10k_smoke and
// fig15_sched_smoke job mix.
std::vector<JobSpec> trace_with_sql(std::uint32_t bg_jobs,
                                    std::uint64_t seed) {
  const SimDuration window = 3600.0;
  TraceGenConfig bg;
  bg.num_jobs = bg_jobs;
  bg.window = window;
  bg.seed = seed + 42;
  std::vector<JobSpec> jobs = make_background_jobs(bg);
  for (std::uint32_t q = 0; q < 40; ++q) {
    SqlJobParams p;
    p.query_index = q % 20;
    p.base_parallelism = 20;
    p.priority = kForegroundPriority;
    p.submit_time = window * 0.2 + 15.0 * q;
    jobs.push_back(make_sql_query(p));
  }
  return jobs;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (Workload w : {Workload::kTrace10kSsr, Workload::kOpenTenants,
                     Workload::kChaosReplay}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kTrace10kSsr:
      return "trace_10k_ssr";
    case Workload::kOpenTenants:
      return "open_tenants";
    case Workload::kChaosReplay:
      return "chaos_replay";
  }
  return "?";
}

Inputs make_inputs(Workload w, std::uint64_t seed, std::uint32_t scale,
                   const std::string& capture_path) {
  Inputs in;
  switch (w) {
    case Workload::kTrace10kSsr: {
      // sched_10k_smoke at half scale: 5k nodes / 20k slots.
      in.cluster.nodes = scaled(5000, scale);
      in.cluster.slots_per_node = 4;
      in.options = ssr_options(seed);
      in.jobs = trace_with_sql(scaled(6000, scale), seed);
      break;
    }
    case Workload::kChaosReplay: {
      // fig15_sched_smoke at scale 1 with trace_capture_smoke's faults, seen
      // through a lossy heartbeat detector.
      in.cluster.nodes = scaled(1000, scale);
      in.cluster.slots_per_node = 4;
      in.options = ssr_options(seed);
      in.jobs = trace_with_sql(scaled(8000, scale), seed);
      RandomFailureConfig fc;
      fc.num_nodes = in.cluster.nodes;
      fc.horizon = 3600.0 * 1.25;
      fc.failures = std::max<std::uint32_t>(4, in.cluster.nodes / 8);
      fc.min_downtime = 30.0;
      fc.max_downtime = 300.0;
      fc.permanent_fraction = 0.2;
      fc.seed = seed + 7;
      in.options.failures = make_random_node_failures(fc);
      in.options.detector.heartbeat_period = 1.0;
      in.options.detector.heartbeat_loss = 0.05;
      in.options.detector.seed = seed + 11;
      in.options.capture_path = capture_path;
      in.options.metrics_policy = "ssr";
      break;
    }
    case Workload::kOpenTenants: {
      // open_arrival_smoke at scale 1, SSR off.
      in.cluster.nodes = scaled(200, scale);
      in.cluster.slots_per_node = 4;
      in.options.seed = seed;
      const std::uint32_t slots = in.cluster.total_slots();
      in.tenants.tenants.push_back({.name = "interactive",
                                    .min_slots = slots / 4,
                                    .max_slots = slots / 2,
                                    .queue_when_full = true});
      in.tenants.tenants.push_back({.name = "batch",
                                    .min_slots = slots / 2,
                                    .max_slots = slots,
                                    .queue_when_full = true});
      std::vector<OpenTenantProfile> profiles;
      profiles.push_back({.tenant = "interactive",
                          .mean_interarrival = 4.0,
                          .num_jobs = scaled(2000, scale),
                          .min_parallelism = 4,
                          .max_parallelism = 16,
                          .priority = kForegroundPriority});
      profiles.push_back({.tenant = "batch",
                          .mean_interarrival = 10.0,
                          .num_jobs = scaled(800, scale),
                          .min_parallelism = 8,
                          .max_parallelism = 64,
                          .priority = 0});
      in.arrivals = make_open_arrivals(profiles, seed + 7);
      break;
    }
  }
  for (const JobSpec& spec : in.jobs) in.num_tasks += count_tasks(spec);
  for (const OpenArrival& a : in.arrivals) in.num_tasks += count_tasks(a.spec);
  in.num_jobs = in.jobs.size() + in.arrivals.size();
  return in;
}

}  // namespace perfbench
