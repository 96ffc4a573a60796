// The repo benchmark program: one workload per process, single-threaded.
//
//   ssr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--capture PATH] [--scale K]
//   ssr_perfbench --selftest [--capture PATH]
//
// --trace 0 repeats the untraced workload for S seconds and reports the
// end-to-end metrics; --trace 1 alternates untraced and traced iterations
// and reports the per-layer metrics plus the tracing overhead.  Every
// iteration's outputs are checked (see check_iteration); a job of an
// iteration that fails a check counts as a failed operation.  The last line
// of stdout is the result JSON; the lines before it are a readable table.
// perfbench/README.md documents the workloads, metrics and bounds.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ssr/audit/trace_replay_auditor.h"
#include "ssr/core/reservation_manager.h"
#include "ssr/exp/bench_report.h"
#include "ssr/exp/harness.h"
#include "ssr/exp/open_scenario.h"
#include "ssr/exp/run_digest.h"
#include "ssr/exp/scenario.h"
#include "ssr/exp/trace_replay.h"
#include "ssr/metrics/collectors.h"
#include "ssr/metrics/engine_metrics.h"
#include "ssr/metrics/registry.h"
#include "ssr/metrics/trace_capture.h"
#include "ssr/sched/engine.h"
#include "ssr/sched/virtual_cluster.h"
#include "ssr/sim/failure_detector.h"
#include "ssr/sim/failure_injector.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ssr;
using Clock = std::chrono::steady_clock;

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  Workload workload = Workload::kTrace10kSsr;
  bool workload_set = false;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::uint32_t scale = 1;
  std::string capture = "perfbench_capture.trace";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ssr_perfbench: " << why
            << "\nusage: ssr_perfbench --workload "
               "trace_10k_ssr|open_tenants|chaos_replay --seed N --seconds S "
               "--trace 0|1 [--capture PATH] [--scale K]\n"
               "       ssr_perfbench --selftest [--capture PATH]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  if (text.empty() || text.size() > 18 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return std::stoull(text);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " requires a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!parse_workload(value, args.workload)) {
        usage("unknown workload '" + value + "'");
      }
      args.workload_set = true;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_uint(flag, value);
      if (s < 1 || s > 600) usage("--seconds must be in [1, 600]");
      args.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--capture") {
      args.capture = value;
    } else if (flag == "--scale") {
      const std::uint64_t k = parse_uint(flag, value);
      if (k < 1 || k > 64) usage("--scale must be in [1, 64]");
      args.scale = static_cast<std::uint32_t>(k);
    } else {
      usage("unknown argument '" + flag + "'");
    }
  }
  if (!args.selftest && !args.workload_set) usage("--workload is required");
  return args;
}

/// Linear interpolation between closest ranks (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string digest_of(const RunResult& run) {
  std::ostringstream out;
  append_run_digest(out, "perfbench", run);
  return out.str();
}

/// Steps a closed workload through advance_to, one step per batch of
/// kClosedStepEvents events.  Advancing to event instants (never past the
/// next event) keeps the clock exactly where run_scenario's drain leaves it,
/// so stepped runs are digest-identical to one run_scenario call.
template <typename Around>
void step_closed(Engine& engine, const Around& around_step) {
  const Simulator& sim = engine.sim();
  while (sim.pending_events() > 0) {
    const std::size_t until = sim.processed_events() + kClosedStepEvents;
    around_step([&] {
      while (sim.pending_events() > 0 && sim.processed_events() < until) {
        engine.advance_to(sim.next_event_time());
      }
    });
  }
}

/// What one iteration (untraced or traced) produced.
struct Iteration {
  /// Set when the iteration threw (e.g. a wedged simulation at drain).
  std::string error;
  RunResult run;
  std::string digest;
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::vector<double> steps_s;
  std::uint64_t jobs = 0;  ///< operations: job submissions
  std::uint64_t arrivals_rejected = 0;
  bool queues_empty = true;
  /// chaos_replay: the replayed digest matched and the auditor was clean.
  std::optional<bool> replay_ok;
  std::uint64_t replay_events = 0;
  std::uint64_t capture_bytes = 0;
  double replay_parse_s = 0.0;
  double replay_s = 0.0;
  double tasks_per_s() const {
    return static_cast<double>(run.task_totals.tasks_started) / timed_s;
  }
};

/// Parses the capture and replays it through ReplayResultBuilder and
/// ReplayAuditor; records whether the replay reproduces `it.digest`.
void verify_replay(const std::string& path, Iteration& it) {
  const auto t0 = Clock::now();
  const TraceReplayer replayer = TraceReplayer::from_file(path);
  it.replay_parse_s = since(t0);
  const auto t1 = Clock::now();
  ReplayResultBuilder builder;
  audit::ReplayAuditor auditor;
  replayer.replay({&builder, &auditor});
  it.replay_s = since(t1);
  it.replay_events = replayer.events().size();
  it.capture_bytes = std::filesystem::file_size(path);
  it.replay_ok = builder.complete() && auditor.clean() &&
                 digest_of(builder.result()) == it.digest;
}

void add_tenants(VirtualClusterManager& vcm, const Inputs& in) {
  for (const VirtualClusterSpec& tenant : in.tenants.tenants) {
    vcm.add_cluster(tenant);
  }
}

void finish_open(const VirtualClusterManager& vcm, Iteration& it) {
  for (const std::string& name : vcm.tenant_names()) {
    it.arrivals_rejected += vcm.stats(name).rejected;
  }
  it.queues_empty = vcm.all_queues_empty();
}

std::vector<JobId> dense_ids(const Engine& engine) {
  std::vector<JobId> ids;
  for (std::uint32_t i = 0; i < engine.num_jobs(); ++i) ids.push_back({i});
  return ids;
}

// --- Untraced iteration: the public harness path -----------------------------

/// The setup of an untraced iteration: inputs, the harness, and either the
/// tenants' admission control (open) or the up-front submits (closed).
struct Setup {
  explicit Setup(const Args& args)
      : in(make_inputs(args.workload, args.seed, args.scale, args.capture)),
        harness(in.cluster, with_registry(args.workload, in, registry)) {
    if (is_open(args.workload)) {
      vcm.emplace(harness.engine());
      add_tenants(*vcm, in);
    } else {
      ids.reserve(in.jobs.size());
      for (JobSpec& spec : in.jobs) {
        ids.push_back(harness.engine().submit(std::move(spec)));
      }
    }
  }

  /// chaos_replay feeds a MetricsRegistry, like trace_capture_smoke.
  static const RunOptions& with_registry(Workload w, Inputs& in,
                                         MetricsRegistry& registry) {
    if (w == Workload::kChaosReplay) in.options.metrics = &registry;
    return in.options;
  }

  Inputs in;
  MetricsRegistry registry;
  ScenarioHarness harness;
  std::optional<VirtualClusterManager> vcm;
  std::vector<JobId> ids;
};

Iteration run_untraced(const Args& args) {
  Iteration it;
  const auto t0 = Clock::now();
  Setup setup(args);
  it.setup_s = since(t0);
  it.jobs = setup.in.num_jobs;
  Engine& engine = setup.harness.engine();
  std::optional<VirtualClusterManager>& vcm = setup.vcm;
  std::vector<JobId>& ids = setup.ids;

  const auto t1 = Clock::now();
  if (vcm) {
    for (OpenArrival& a : setup.in.arrivals) {
      const auto s = Clock::now();
      engine.advance_to(a.at);
      vcm->submit_job(a.tenant, std::move(a.spec));
      it.steps_s.push_back(since(s));
    }
  } else {
    step_closed(engine, [&](const auto& step) {
      const auto s = Clock::now();
      step();
      it.steps_s.push_back(since(s));
    });
  }
  engine.drain();
  if (vcm) {
    ids = dense_ids(engine);
    finish_open(*vcm, it);
  }
  it.run = setup.harness.collect(ids);
  it.digest = digest_of(it.run);
  if (args.workload == Workload::kChaosReplay) verify_replay(args.capture, it);
  it.timed_s = since(t1);
  return it;
}

// --- Traced iteration: the harness wiring rebuilt with every layer wrapped ---

/// Per-layer numbers of one traced iteration.
using LayerMetrics = std::map<std::string, double>;

Iteration run_traced(const Args& args, LayerMetrics& m) {
  Iteration it;
  Spans spans;
  const Workload w = args.workload;

  std::optional<Inputs> generated;
  {
    Span span(spans, Layer::kWorkload);
    generated.emplace(make_inputs(w, args.seed, args.scale, args.capture));
  }
  Inputs& in = *generated;
  it.jobs = in.num_jobs;
  DetectionOutcome detection;
  {
    Span span(spans, Layer::kFailure);
    detection = detect_failures(in.options.failures, in.options.detector,
                                in.cluster.nodes);
  }

  // ScenarioHarness's construction, in its order: hook, task stats,
  // recovery stats, trace recorder, engine metrics, failure injector.  The
  // collectors are the harness's own public classes, each behind a
  // forwarding observer; the counting observer comes last.
  const auto build_start = Clock::now();
  Engine engine(in.options.sched, in.cluster.nodes, in.cluster.slots_per_node,
                in.cluster.node_slots, in.options.seed);
  TimedHook* hook = nullptr;
  if (in.options.ssr) {
    auto timed = std::make_unique<TimedHook>(
        std::make_unique<ReservationManager>(*in.options.ssr), spans);
    hook = timed.get();
    engine.set_reservation_hook(std::move(timed));
  }
  std::uint64_t observer_callbacks = 0;
  std::uint64_t tracer_callbacks = 0;
  std::vector<std::unique_ptr<TimedObserver>> wrappers;
  const auto attach = [&](EngineObserver& o, Layer layer,
                          std::uint64_t& counter) {
    wrappers.push_back(
        std::make_unique<TimedObserver>(o, spans, layer, counter));
    engine.add_observer(wrappers.back().get());
  };
  TaskStatsCollector task_stats;
  RecoveryStatsCollector recovery_stats;
  attach(task_stats, Layer::kMetrics, observer_callbacks);
  attach(recovery_stats, Layer::kMetrics, observer_callbacks);
  std::unique_ptr<TraceRecorder> recorder;
  if (!in.options.capture_path.empty()) {
    recorder = std::make_unique<TraceRecorder>(
        in.cluster.nodes, engine.cluster().num_slots(), in.options.seed,
        in.options.metrics_policy, /*counts_expired=*/hook != nullptr);
    recorder->set_detector_outcome(detection.suspicions.size(),
                                   detection.false_suspicions());
    attach(*recorder, Layer::kMetrics, observer_callbacks);
  }
  MetricsRegistry registry;
  std::unique_ptr<EngineMetrics> engine_metrics;
  if (w == Workload::kChaosReplay) {
    engine_metrics =
        std::make_unique<EngineMetrics>(registry, in.options.metrics_policy);
    attach(*engine_metrics, Layer::kMetrics, observer_callbacks);
  }
  FailureInjector injector(detection.detected);
  if (!detection.detected.empty()) injector.attach(engine.sim(), engine);
  std::optional<VirtualClusterManager> vcm;
  if (is_open(w)) {
    vcm.emplace(engine);
    add_tenants(*vcm, in);
  }
  OccupancyObserver occupancy(engine.cluster().num_slots());
  attach(occupancy, Layer::kTracer, tracer_callbacks);
  const double build_s = since(build_start);

  // Step-boundary samples of queue depth and slot occupancy.
  double pending_sum = 0.0, idle_sum = 0.0;
  double pending_peak = 0.0, idle_peak = 0.0, reserved_peak = 0.0;
  const auto sample = [&] {
    const auto pending = static_cast<double>(engine.sim().pending_events());
    pending_sum += pending;
    pending_peak = std::max(pending_peak, pending);
    idle_sum += occupancy.idle();
    idle_peak = std::max<double>(idle_peak, occupancy.idle());
    reserved_peak = std::max<double>(reserved_peak, occupancy.reserved());
  };

  std::vector<JobId> ids;
  double submit_s = 0.0, vc_submit_s = 0.0, step_s = 0.0;
  std::uint64_t vc_calls = 0;
  if (!vcm) {
    ids.reserve(in.jobs.size());
    const auto s = Clock::now();
    for (JobSpec& spec : in.jobs) {
      Span span(spans, Layer::kSched);
      ids.push_back(engine.submit(std::move(spec)));
    }
    submit_s = since(s);
  }
  // Inclusive time of a call into the engine's stepping API.
  const auto sched_call = [&](const auto& call) {
    const auto s = Clock::now();
    {
      Span span(spans, Layer::kSched);
      call();
    }
    const double elapsed = since(s);
    step_s += elapsed;
    return elapsed;
  };

  const auto t1 = Clock::now();
  if (vcm) {
    for (OpenArrival& a : in.arrivals) {
      const double advance_s = sched_call([&] { engine.advance_to(a.at); });
      const auto v = Clock::now();
      {
        Span span(spans, Layer::kVc);
        vcm->submit_job(a.tenant, std::move(a.spec));
      }
      const double admit_s = since(v);
      vc_submit_s += admit_s;
      ++vc_calls;
      it.steps_s.push_back(advance_s + admit_s);
      sample();
    }
  } else {
    step_closed(engine, [&](const auto& step) {
      it.steps_s.push_back(sched_call(step));
      sample();
    });
  }
  sched_call([&] { engine.drain(); });
  if (vcm) {
    ids = dense_ids(engine);
    finish_open(*vcm, it);
  }

  // ScenarioHarness::collect, from the same public accessors.
  const auto c = Clock::now();
  RunResult& r = it.run;
  engine.cluster().settle(engine.sim().now());
  for (JobId id : ids) {
    JobResult jr;
    jr.id = id;
    jr.name = engine.job_name(id);
    jr.priority = engine.graph(id).priority();
    jr.submit = engine.graph(id).submit_time();
    jr.finish = engine.job_finish_time(id);
    jr.jct = engine.jct(id);
    jr.busy_seconds = task_stats.stats(id).busy_seconds;
    jr.reserved_idle_seconds = engine.cluster().reserved_idle_time_of(id);
    r.jobs.push_back(std::move(jr));
    r.makespan = std::max(r.makespan, engine.job_finish_time(id));
  }
  r.busy_time = engine.cluster().total_busy_time();
  r.reserved_idle_time = engine.cluster().total_reserved_idle_time();
  r.utilization =
      r.makespan > 0.0
          ? r.busy_time / (r.makespan *
                           static_cast<double>(engine.cluster().num_slots()))
          : 0.0;
  if (hook != nullptr) {
    r.reservations_expired = hook->inner().reservations_expired();
  }
  r.task_totals = task_stats.totals();
  r.recovery = recovery_stats.stats();
  r.dead_time = engine.cluster().total_dead_time();
  r.suspicions = detection.suspicions.size();
  r.false_suspicions = detection.false_suspicions();
  if (engine_metrics) {
    record_recovery(registry, r.recovery, in.options.metrics_policy);
  }
  if (recorder) recorder->write_file(in.options.capture_path);
  const double collect_s = since(c);
  it.digest = digest_of(r);
  if (w == Workload::kChaosReplay) verify_replay(args.capture, it);
  it.timed_s = since(t1);

  const auto samples = static_cast<double>(std::max<std::size_t>(
      1, it.steps_s.size()));
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double events = static_cast<double>(engine.sim().processed_events());
  std::uint64_t admitted = 0, queued = 0;
  if (vcm) {
    for (const std::string& name : vcm->tenant_names()) {
      admitted += vcm->stats(name).admitted;
      queued += vcm->stats(name).queued_total;
    }
  }

  m["workload.gen_s"] = spans.self_s(Layer::kWorkload);
  m["workload.jobs"] = static_cast<double>(in.num_jobs);
  m["workload.tasks"] = static_cast<double>(in.num_tasks);
  m["exp.harness_build_s"] = build_s;
  m["exp.collect_s"] = collect_s;
  m["exp.replay.parse_s"] = it.replay_parse_s;
  m["exp.replay.s"] = it.replay_s;
  m["exp.replay.events"] = static_cast<double>(it.replay_events);
  m["exp.replay.events_per_s"] =
      ratio(static_cast<double>(it.replay_events), it.replay_s);
  m["sched.submit_s"] = submit_s;
  m["sched.submit_calls"] = static_cast<double>(in.jobs.size());
  m["sched.step_s"] = step_s;
  m["sched.steps"] = static_cast<double>(it.steps_s.size());
  m["sched.self_s"] = spans.self_s(Layer::kSched);
  m["sched.tasks_started"] = static_cast<double>(occupancy.tasks_started);
  m["sched.tasks_finished"] = static_cast<double>(occupancy.tasks_finished);
  m["sched.tasks_killed"] = static_cast<double>(occupancy.tasks_killed);
  m["sched.useful_ratio"] =
      ratio(static_cast<double>(occupancy.tasks_finished),
            static_cast<double>(occupancy.tasks_started));
  m["sched.jobs_retained"] = static_cast<double>(engine.num_jobs());
  m["sched.vc.submit_s"] = vc_submit_s;
  m["sched.vc.submit_calls"] = static_cast<double>(vc_calls);
  m["sched.vc.admitted"] = static_cast<double>(admitted);
  m["sched.vc.queued"] = static_cast<double>(queued);
  m["sched.vc.rejected"] = static_cast<double>(it.arrivals_rejected);
  m["sim.events"] = events;
  m["sim.events_per_task"] =
      ratio(events, static_cast<double>(occupancy.tasks_started));
  m["sim.pending_peak"] = pending_peak;
  m["sim.pending_mean"] = pending_sum / samples;
  m["sim.cluster.idle_mean"] = idle_sum / samples;
  m["sim.cluster.idle_peak"] = idle_peak;
  m["sim.cluster.reserved_idle_peak"] = reserved_peak;
  m["sim.cluster.utilization"] = r.utilization;
  m["sim.failure.detect_s"] = spans.self_s(Layer::kFailure);
  m["sim.failure.slots_failed"] = static_cast<double>(r.recovery.slots_failed);
  m["sim.failure.tasks_requeued"] =
      static_cast<double>(r.recovery.tasks_requeued);
  m["sim.failure.stages_invalidated"] =
      static_cast<double>(r.recovery.stages_invalidated);
  m["sim.failure.suspicions"] = static_cast<double>(r.suspicions);
  m["core.hook_s"] = spans.self_s(Layer::kCore);
  m["core.hook_calls"] =
      static_cast<double>(hook != nullptr ? hook->hook_calls() : 0);
  m["core.approve_calls"] =
      static_cast<double>(hook != nullptr ? hook->approve_calls() : 0);
  m["core.reservations_made"] = static_cast<double>(occupancy.reservations_made);
  m["core.reservations_claimed"] =
      static_cast<double>(occupancy.reservations_claimed);
  m["core.reservations_released"] =
      static_cast<double>(occupancy.reservations_released);
  m["core.reservations_expired"] =
      static_cast<double>(occupancy.reservations_expired);
  m["core.reservations_outstanding"] = occupancy.reserved();
  m["core.claim_ratio"] =
      ratio(static_cast<double>(occupancy.reservations_claimed),
            static_cast<double>(occupancy.reservations_made));
  m["core.copies_launched"] = static_cast<double>(occupancy.copies_launched);
  m["metrics.observer_s"] = spans.self_s(Layer::kMetrics);
  m["metrics.callbacks"] = static_cast<double>(observer_callbacks);
  m["metrics.capture_bytes"] = static_cast<double>(it.capture_bytes);
  m["trace.tracer_s"] = spans.self_s(Layer::kTracer);

  // The tracer's own bookkeeping must agree with the engine and the harness.
  // Every reservation made either ended (claimed, released, expired) or is
  // still held when the run ends.
  const std::uint64_t reservations_accounted =
      occupancy.reservations_claimed + occupancy.reservations_released +
      occupancy.reservations_expired + occupancy.reserved();
  const bool tracer_consistent =
      occupancy.matches(engine) &&
      reservations_accounted == occupancy.reservations_made &&
      occupancy.tasks_started == r.task_totals.tasks_started &&
      (hook == nullptr || occupancy.reservations_expired ==
                              hook->inner().reservations_expired());
  if (!tracer_consistent) {
    it.error = "tracer bookkeeping disagrees with the engine";
  }
  return it;
}

// --- Checks, operations and reporting ----------------------------------------

/// Runs one iteration; an exception fails every job of the iteration.
template <typename Run>
Iteration guarded(const Args& args, const Run& run) {
  try {
    return run();
  } catch (const std::exception& e) {
    Iteration it;
    it.error = e.what();
    it.jobs = make_inputs(args.workload, args.seed, args.scale, args.capture)
                  .num_jobs;
    return it;
  }
}

/// Returns the empty string when the iteration's outputs are correct, else
/// the first failed check.  `reference` is the digest every iteration of the
/// run must reproduce (same seed, same inputs).
std::string check_iteration(const Args& args, const Iteration& it,
                            const std::string& reference) {
  if (!it.error.empty()) return it.error;
  const std::uint64_t expected_jobs =
      is_open(args.workload) ? it.jobs - it.arrivals_rejected : it.jobs;
  if (it.run.jobs.size() != expected_jobs) return "job count mismatch";
  if (!it.queues_empty) return "admission queues not empty at drain";
  if (!(it.run.utilization > 0.0 && it.run.utilization <= 1.0)) {
    return "utilization out of (0, 1]";
  }
  if (it.run.task_totals.tasks_started == 0) return "no task started";
  if (it.digest != reference) return "digest differs from the first run";
  if (it.replay_ok.has_value() && !*it.replay_ok) {
    return "replayed capture does not reproduce the live run";
  }
  return "";
}

/// JCTs of the foreground (priority-10) or the background jobs.
std::vector<double> jcts(const RunResult& run, bool foreground) {
  std::vector<double> out;
  for (const JobResult& j : run.jobs) {
    if ((j.priority == kForegroundPriority) == foreground) out.push_back(j.jct);
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count etc., for the readable table only
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Tallies operations over a run's iterations.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Returns true when the iteration passed its checks.
  bool add(const Iteration& it, const std::string& error) {
    attempted += it.jobs;
    if (error.empty()) return true;
    failed += it.jobs;
    std::cerr << "check failed: " << error << "\n";
    return false;
  }
};

/// Setup repeated on its own, to give setup_s enough samples for a median.
double setup_only(const Args& args) {
  const auto t0 = Clock::now();
  const Setup setup(args);
  return since(t0);
}

/// Input variants one end-to-end run covers: variant i of seed N is
/// generated from seed N * kVariants + i.  Pooling variants keeps the run's
/// figures from hinging on one draw of the heavy-tailed job mix.
constexpr std::uint64_t kVariants = 2;

Args variant(const Args& args, std::uint64_t i) {
  Args v = args;
  v.seed = args.seed * kVariants + i % kVariants;
  return v;
}

/// One variant's timed phases over a run's passes, split into its steps and
/// the rest (drain, collect and, on chaos_replay, the capture write and the
/// replay).  The work is deterministic, so step k is the same work in every
/// pass, and its median over the passes drops the passes a slow episode of
/// the host hit.
struct StepTimes {
  std::vector<std::vector<double>> passes;  ///< [pass][step]
  std::vector<double> rest;                 ///< [pass]

  /// Adds one pass; false if its steps do not line up with the first pass.
  bool add(const Iteration& it) {
    if (!passes.empty() && passes[0].size() != it.steps_s.size()) return false;
    double stepped = 0.0;
    for (double s : it.steps_s) stepped += s;
    passes.push_back(it.steps_s);
    rest.push_back(it.timed_s - stepped);
    return true;
  }
  /// Each step's median over the passes.
  std::vector<double> medians() const {
    std::vector<double> out, samples;
    for (std::size_t k = 0; k < passes[0].size(); ++k) {
      samples.clear();
      for (const std::vector<double>& pass : passes) samples.push_back(pass[k]);
      out.push_back(quantile(samples, 0.5));
    }
    return out;
  }
};

int run_end_to_end(const Args& args) {
  Tally tally;
  std::vector<std::string> references(kVariants);
  std::vector<StepTimes> times(kVariants);
  // Tasks and simulated outcomes of one pass (the first passing iteration
  // of each variant; later ones repeat them exactly).
  std::vector<std::uint64_t> tasks(kVariants, 0);
  std::vector<double> fg, bg, setups;
  const auto run_variant = [&](std::uint64_t i) {
    const Args v = variant(args, i);
    Iteration it = guarded(v, [&] { return run_untraced(v); });
    std::string& reference = references[i];
    if (reference.empty()) reference = it.digest;
    std::string error = check_iteration(v, it, reference);
    if (error.empty() && !times[i].add(it)) {
      error = "step count differs from the first pass";
    }
    if (!tally.add(it, error)) return;
    std::fprintf(stderr,
                 "  variant %llu (seed %llu): %.3f s timed, %.0f tasks/s, "
                 "%zu steps\n",
                 static_cast<unsigned long long>(i),
                 static_cast<unsigned long long>(v.seed), it.timed_s,
                 it.tasks_per_s(), it.steps_s.size());
    if (tasks[i] == 0) {
      const std::vector<double> f = jcts(it.run, true);
      const std::vector<double> b = jcts(it.run, false);
      fg.insert(fg.end(), f.begin(), f.end());
      bg.insert(bg.end(), b.begin(), b.end());
      tasks[i] = it.run.task_totals.tasks_started;
    }
    setups.push_back(it.setup_s);
  };

  // Whole passes over the variants until the time is up, and at least
  // kMinPasses, so every step's median has several samples (one
  // chaos_replay pass takes about 17 s).
  constexpr std::uint64_t kMinPasses = 4;
  std::uint64_t passes = 0;
  const auto start = Clock::now();
  while (passes < kMinPasses || since(start) < args.seconds) {
    for (std::uint64_t i = 0; i < kVariants; ++i) run_variant(i);
    ++passes;
  }

  // Tasks of one pass over host seconds of one pass, every step and every
  // rest at its median; the step percentiles over the same step medians.
  std::uint64_t pass_tasks = 0;
  double pass_s = 0.0;
  std::vector<double> steps;
  for (std::uint64_t i = 0; i < kVariants; ++i) {
    if (times[i].passes.empty()) continue;
    const std::vector<double> medians = times[i].medians();
    pass_tasks += tasks[i];
    pass_s += quantile(times[i].rest, 0.5);
    for (double s : medians) pass_s += s;
    steps.insert(steps.end(), medians.begin(), medians.end());
  }
  if (pass_s <= 0.0) {
    print_result(false, tally.attempted, tally.failed, {});
    return 0;
  }

  constexpr std::size_t kSetupSamples = 51;
  for (std::uint64_t i = 0; setups.size() < kSetupSamples; ++i) {
    setups.push_back(setup_only(variant(args, i)));
  }

  const std::string n_passes = "n=" + std::to_string(passes) + " passes";
  const std::string n_steps = "n=" + std::to_string(steps.size()) +
                              " steps, median of " + std::to_string(passes);
  // step_p99 needs >= 10 samples beyond it; otherwise name the highest
  // percentile that has them.
  std::string p99_note = n_steps;
  if (steps.size() < 1000) {
    const double q = steps.size() > 10 ? 1.0 - 10.0 / steps.size() : 0.0;
    p99_note += " (only p" + std::to_string(static_cast<int>(q * 100)) +
                " has 10 beyond)";
  }
  const std::vector<Metric> metrics = {
      {"tasks_per_s", static_cast<double>(pass_tasks) / pass_s, "tasks/s",
       n_passes + ", median time per step"},
      {"step_p50_ms", quantile(steps, 0.5) * 1e3, "ms", n_steps},
      {"step_p99_ms", quantile(steps, 0.99) * 1e3, "ms", p99_note},
      {"setup_s", quantile(setups, 0.5), "s",
       "n=" + std::to_string(setups.size()) + " setups, median"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", "process peak"},
      {"fg_jct_p50_s", quantile(fg, 0.5), "sim_s",
       "n=" + std::to_string(fg.size()) + " fg jobs"},
      {"fg_jct_p75_s", quantile(fg, 0.75), "sim_s",
       "n=" + std::to_string(fg.size()) + " fg jobs"},
      {"bg_jct_p50_s", quantile(bg, 0.5), "sim_s",
       "n=" + std::to_string(bg.size()) + " bg jobs"},
  };
  std::printf("%s seed=%llu: %llu variants, %llu tasks in one pass\n",
              workload_name(args.workload),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kVariants),
              static_cast<unsigned long long>(pass_tasks));
  print_result(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return 0;
}

const char* unit_of(const std::string& name) {
  if (ends_with(name, "_per_s")) return "1/s";
  if (ends_with(name, "_s") || ends_with(name, ".s")) return "s";
  if (ends_with(name, "_ratio") || ends_with(name, "_per_task")) {
    return "ratio";
  }
  if (ends_with(name, "utilization")) return "fraction";
  if (ends_with(name, "_bytes")) return "bytes";
  return "count";
}

bool is_timing(const std::string& name) {
  return ends_with(name, "_s") || ends_with(name, ".s");
}

/// Traces variant 0 of the end-to-end run's inputs.
int run_layers(const Args& base) {
  const Args args = variant(base, 0);
  Tally tally;
  std::vector<LayerMetrics> traced_layers;
  std::vector<double> untraced_rates, traced_rates;
  std::string reference;
  const auto start = Clock::now();
  do {
    const Iteration plain = guarded(args, [&] { return run_untraced(args); });
    if (reference.empty()) reference = plain.digest;
    if (tally.add(plain, check_iteration(args, plain, reference))) {
      untraced_rates.push_back(plain.tasks_per_s());
    }
    LayerMetrics m;
    const Iteration traced =
        guarded(args, [&] { return run_traced(args, m); });
    std::string error = check_iteration(args, traced, reference);
    if (error.empty() && !traced_layers.empty()) {
      for (const auto& [name, value] : m) {
        if (!is_timing(name) && traced_layers[0].at(name) != value) {
          error = "traced count " + name + " differs between runs";
        }
      }
    }
    if (tally.add(traced, error)) {
      traced_rates.push_back(traced.tasks_per_s());
      traced_layers.push_back(std::move(m));
    }
  } while (since(start) < args.seconds);

  LayerMetrics layers;
  if (!traced_layers.empty()) layers = traced_layers[0];
  for (auto& [name, value] : layers) {
    if (!is_timing(name)) continue;
    std::vector<double> values;
    for (const LayerMetrics& m : traced_layers) values.push_back(m.at(name));
    value = quantile(values, 0.5);
  }
  const double untraced = quantile(untraced_rates, 0.5);
  const double traced = quantile(traced_rates, 0.5);
  layers["trace.untraced_tasks_per_s"] = untraced;
  layers["trace.tasks_per_s"] = traced;
  layers["trace.overhead_ratio"] = traced > 0.0 ? untraced / traced : 0.0;
  const std::string note =
      "n=" + std::to_string(traced_rates.size()) + " traced runs";
  std::vector<Metric> metrics;
  for (const auto& [name, value] : layers) {
    metrics.push_back({name, value, unit_of(name), note});
  }
  std::printf("%s seed=%llu variant 0, traced (times: medians over runs)\n",
              workload_name(args.workload),
              static_cast<unsigned long long>(base.seed));
  print_result(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return 0;
}

/// The benchmark's own tests, on quick (1/8-scale) shapes of every workload.
int run_selftest(Args args) {
  args.scale = 8;
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (Workload w : {Workload::kTrace10kSsr, Workload::kOpenTenants,
                     Workload::kChaosReplay}) {
    args.workload = w;
    const std::string name = workload_name(w);
    const Iteration a = run_untraced(args);
    const Iteration b = run_untraced(args);
    expect(check_iteration(args, a, a.digest).empty(),
           name + ": untraced run passes its checks");
    expect(a.digest == b.digest && jcts(a.run, true) == jcts(b.run, true),
           name + ": same seed, same digest and foreground JCTs");

    Inputs in = make_inputs(w, args.seed, args.scale, args.capture);
    MetricsRegistry registry;
    if (w == Workload::kChaosReplay) in.options.metrics = &registry;
    const RunResult one =
        is_open(w) ? run_open_scenario(in.cluster, in.tenants,
                                       std::move(in.arrivals), in.options)
                   : run_scenario(in.cluster, std::move(in.jobs), in.options);
    expect(digest_of(one) == a.digest,
           name + ": stepped run has the digest of one whole-run call");

    LayerMetrics m1, m2;
    const Iteration t1 = run_traced(args, m1);
    const Iteration t2 = run_traced(args, m2);
    expect(t1.digest == a.digest && t2.digest == a.digest,
           name + ": traced digest equals untraced digest");
    expect(t1.error.empty() && t2.error.empty(),
           name + ": tracer bookkeeping agrees with the engine");
    std::string differing;
    for (const auto& [metric, value] : m1) {
      if (!is_timing(metric) && m2.at(metric) != value) differing += metric + " ";
    }
    expect(differing.empty(), name + ": traced counts repeat " + differing);
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  try {
    const int rc = args.selftest ? run_selftest(args)
                   : args.trace  ? run_layers(args)
                                 : run_end_to_end(args);
    std::remove(args.capture.c_str());
    return rc;
  } catch (const std::exception& e) {
    std::remove(args.capture.c_str());
    std::cerr << "ssr_perfbench: " << e.what() << "\n";
    return 1;
  }
}
