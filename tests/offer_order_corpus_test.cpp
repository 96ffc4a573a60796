// Offer-order equivalence corpus: pins the engine's full observable
// behaviour on 48 seeded random scenarios to one committed digest file.
//
// The differential selection suite compares the reference and indexed
// candidate enumerations, but both share Engine::offer_slot, so a change to
// how a freed slot picks its task set is invisible there; and the figure
// goldens run the Priority policy only.  This corpus covers the cross
// product the offer path depends on:
//   {Priority, Fair} x {no selector, dagps, packing} x {closed, open}
// with four fault variants per cell (none, node failures, a lossy
// heartbeat detector over node failures, node failures under SSR with
// straggler copies), so failure-time resurrection and re-activation of
// finished stages are exercised under both policies.
//
// Each case contributes its bit-exact run digest (exp/run_digest.h), the
// length and FNV-1a hash of its observer event stream (tests/event_stream.h
// — every start, finish, kill, reservation and failure with its instant),
// and the number of simulator events processed (which also counts the
// delay-scheduling retry timers no observer sees).
//
// Regenerate after an *intentional* behaviour change with:
//   SSR_UPDATE_GOLDEN=1 ./tests/offer_order_corpus_test
// and review the diff like any other code change.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "event_stream.h"
#include "run_digest.h"
#include "ssr/exp/harness.h"
#include "ssr/exp/policy_zoo.h"
#include "ssr/sched/virtual_cluster.h"
#include "ssr/sim/failure_detector.h"
#include "ssr/workload/open_arrival.h"
#include "ssr/workload/tracegen.h"

namespace ssr {
namespace {

constexpr int kCases = 48;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& line : lines) {
    for (const char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= static_cast<unsigned char>('\n');
    h *= 0x100000001b3ULL;
  }
  return h;
}

enum class Fault { kNone, kFailures, kDetector, kFailuresSsr };

const char* fault_name(Fault f) {
  switch (f) {
    case Fault::kNone:
      return "none";
    case Fault::kFailures:
      return "failures";
    case Fault::kDetector:
      return "detector";
    case Fault::kFailuresSsr:
      return "failures+ssr";
  }
  return "?";
}

struct CorpusCase {
  std::string title;
  ClusterSpec cluster;
  RunOptions options;
  bool open = false;
  /// Closed mode: submitted in this order.  Open mode: the background
  /// tenant's jobs, merged with `arrivals` by time.
  std::vector<JobSpec> jobs;
  std::vector<OpenArrival> arrivals;
};

CorpusCase make_case(int index) {
  const auto trial = static_cast<std::uint64_t>(index);
  const auto draw = [&](std::uint64_t salt, std::uint64_t mod) {
    return splitmix64(trial * 0x9E3779B1ULL + salt) % mod;
  };
  // index = ((policy * 3 + selector) * 2 + mode) * 4 + fault
  const auto fault = static_cast<Fault>(index % 4);
  const bool open = (index / 4) % 2 == 1;
  const int selector = (index / 8) % 3;
  const bool fair = index / 24 == 1;

  CorpusCase c;
  c.open = open;
  c.cluster = ClusterSpec{
      .nodes = static_cast<std::uint32_t>(4 + draw(1, 6)),
      .slots_per_node = static_cast<std::uint32_t>(1 + draw(2, 3)),
      .node_slots = {}};
  const ZooPolicy zoo = selector == 0   ? ZooPolicy::kBaseline
                        : selector == 1 ? ZooPolicy::kDagps
                                        : ZooPolicy::kPacking;
  if (zoo == ZooPolicy::kPacking) {
    // Capacity spread gives best-fit packing a gradient to rank by.
    c.cluster.node_slots.assign(c.cluster.nodes, {});
    for (std::uint32_t n = 0; n < c.cluster.nodes; ++n) {
      for (std::uint32_t s = 0; s < c.cluster.slots_per_node; ++s) {
        const double cap = (n + s) % 2 == 0 ? 1.0 : 2.0;
        c.cluster.node_slots[n].push_back(Resources{cap, cap, cap});
      }
    }
  }
  RunOptions& o = c.options;
  o.seed = trial + 7;
  apply_zoo_policy(zoo, c.cluster, o);
  o.sched.policy = fair ? SchedulingPolicy::Fair : SchedulingPolicy::Priority;
  o.sched.locality_wait = draw(3, 3) == 0 ? 0.0 : 3.0;
  o.sched.locality_slowdown = 3.0;
  if (fault == Fault::kFailuresSsr || (fault == Fault::kNone && draw(4, 2))) {
    o.ssr = SsrConfig{};
    o.ssr->min_reserving_priority = 1;
    o.ssr->isolation_p = draw(5, 2) == 0 ? 1.0 : 0.5;
    o.ssr->enable_straggler_mitigation = fault == Fault::kFailuresSsr;
  }
  if (fault != Fault::kNone) {
    RandomFailureConfig failures;
    failures.num_nodes = c.cluster.nodes;
    failures.failures = static_cast<std::uint32_t>(2 + draw(6, 3));
    failures.horizon = 150.0;
    failures.min_downtime = 5.0;
    failures.max_downtime = 40.0;
    failures.permanent_fraction = 0.2;
    failures.seed = splitmix64(trial ^ 0xFA117);
    o.failures = make_random_node_failures(failures);
  }
  if (fault == Fault::kDetector) {
    o.detector.heartbeat_period = 2.0 + static_cast<double>(draw(7, 3));
    o.detector.timeout_beats = 2 + static_cast<std::uint32_t>(draw(8, 2));
    o.detector.heartbeat_loss = 0.1 + 0.1 * static_cast<double>(draw(9, 3));
    o.detector.noise_horizon = 150.0;
    o.detector.seed = 0xd07 + trial;
  }

  TraceGenConfig bg;
  bg.num_jobs = static_cast<std::uint32_t>(6 + draw(10, 8));
  bg.window = 120.0;
  bg.mean_task_seconds = 40.0;
  bg.small_job_max_tasks = 6;
  bg.large_job_max_tasks = 40;
  bg.vary_demand = zoo == ZooPolicy::kPacking;
  bg.seed = splitmix64(trial ^ 0xB6);
  c.jobs = make_background_jobs(bg);

  std::vector<OpenTenantProfile> profiles;
  profiles.push_back({.tenant = "fg",
                      .mean_interarrival =
                          15.0 + static_cast<double>(draw(11, 30)),
                      .num_jobs = static_cast<std::uint32_t>(2 + draw(12, 4)),
                      .min_parallelism = 2,
                      .max_parallelism =
                          static_cast<std::uint32_t>(4 + draw(13, 8)),
                      .priority = 10});
  c.arrivals = make_open_arrivals(profiles, splitmix64(trial ^ 0xF9));
  // Unequal weights make fair shares differ in their low-order bits.
  for (std::size_t i = 0; i < c.jobs.size(); ++i) {
    c.jobs[i].fair_weight = 1.0 + static_cast<double>(i % 3) * 0.5;
  }
  for (std::size_t i = 0; i < c.arrivals.size(); ++i) {
    c.arrivals[i].spec.fair_weight = i % 2 == 0 ? 3.0 : 0.7;
  }

  std::ostringstream title;
  title << "corpus/" << index << ' ' << (fair ? "fair" : "priority") << ' '
        << zoo_policy_name(zoo) << ' ' << (open ? "open" : "closed") << ' '
        << fault_name(fault);
  c.title = title.str();
  return c;
}

/// The event-stream and simulator-event lines every case ends with.
void append_stream(std::ostringstream& out, const EventLogObserver& log,
                   const Engine& engine) {
  out << "  events n=" << log.events().size() << " fnv=" << std::hex
      << fnv1a(log.events()) << std::dec << '\n';
  out << "  sim_events " << engine.sim().processed_events() << '\n';
}

/// Closed mode: batch-submit everything and run to quiescence.
void run_closed(CorpusCase& c, std::ostringstream& out) {
  ScenarioHarness harness(c.cluster, c.options);
  EventLogObserver log;
  harness.engine().add_observer(&log);
  std::vector<JobId> ids;
  for (JobSpec& spec : c.jobs) {
    ids.push_back(harness.engine().submit(std::move(spec)));
  }
  for (OpenArrival& a : c.arrivals) {
    ids.push_back(harness.engine().submit(std::move(a.spec)));
  }
  harness.engine().run();
  append_run(out, c.title, harness.collect(ids));
  append_stream(out, log, harness.engine());
}

/// Open mode: two tenants behind virtual-cluster admission control, the
/// engine stepped to each arrival instant (the run_open_scenario loop, with
/// an event log attached).
void run_open(CorpusCase& c, std::ostringstream& out) {
  ScenarioHarness harness(c.cluster, c.options);
  Engine& engine = harness.engine();
  EventLogObserver log;
  engine.add_observer(&log);
  VirtualClusterManager vcm(engine);
  const std::uint32_t total = c.cluster.total_slots();
  vcm.add_cluster({.name = "bg", .min_slots = total / 2,
                   .max_slots = total, .queue_when_full = true});
  vcm.add_cluster({.name = "fg", .min_slots = total - total / 2,
                   .max_slots = total, .queue_when_full = true});

  std::vector<OpenArrival> merged;
  for (JobSpec& spec : c.jobs) {
    const SimTime at = spec.submit_time;
    merged.push_back({"bg", at, std::move(spec)});
  }
  for (OpenArrival& a : c.arrivals) merged.push_back(std::move(a));
  std::stable_sort(merged.begin(), merged.end(),
                   [](const OpenArrival& a, const OpenArrival& b) {
                     return a.at < b.at;
                   });
  for (OpenArrival& a : merged) {
    engine.advance_to(a.at);
    vcm.submit_job(a.tenant, std::move(a.spec));
  }
  engine.drain();

  std::vector<JobId> ids;
  for (std::uint32_t i = 0; i < engine.num_jobs(); ++i) ids.push_back(JobId{i});
  append_run(out, c.title, harness.collect(ids));
  for (const std::string& name : vcm.tenant_names()) {
    const TenantStats& s = vcm.stats(name);
    out << "  tenant " << name << " admitted=" << s.admitted
        << " queued=" << s.queued_total << " completed=" << s.completed
        << '\n';
  }
  append_stream(out, log, engine);
}

TEST(OfferOrderCorpus, DigestsMatchCommittedCorpus) {
  std::ostringstream digest;
  int fair_with_failures = 0;
  for (int i = 0; i < kCases; ++i) {
    CorpusCase c = make_case(i);
    SCOPED_TRACE(c.title);
    if (c.options.sched.policy == SchedulingPolicy::Fair &&
        !c.options.failures.events.empty()) {
      ++fair_with_failures;
    }
    if (c.open) {
      run_open(c, digest);
    } else {
      run_closed(c, digest);
    }
  }
  EXPECT_EQ(fair_with_failures, 18);
  compare_golden("offer_order_corpus.digest", digest.str());
}

}  // namespace
}  // namespace ssr
