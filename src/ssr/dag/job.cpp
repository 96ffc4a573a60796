#include "ssr/dag/job.h"

#include <utility>

#include "ssr/common/check.h"

namespace ssr {

JobGraph::JobGraph(JobId id, JobSpec spec) : id_(id), spec_(std::move(spec)) {
  SSR_CHECK_MSG(!spec_.stages.empty(), "job must have at least one stage");
  // A non-positive or NaN weight would make the fair share NaN, and the
  // engine's offer index needs shares that order totally.
  SSR_CHECK_MSG(spec_.fair_weight > 0.0, "fair weight must be positive");
  const auto n = static_cast<std::uint32_t>(spec_.stages.size());
  children_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const StageSpec& st = spec_.stages[i];
    SSR_CHECK_MSG(st.num_tasks > 0, "stage must have at least one task");
    SSR_CHECK_MSG(st.duration != nullptr, "stage needs a duration model");
    if (st.explicit_durations) {
      SSR_CHECK_EQ(st.explicit_durations->size(), st.num_tasks);
      for (double d : *st.explicit_durations) {
        SSR_CHECK_MSG(d > 0.0, "task durations must be positive");
      }
    }
    for (std::uint32_t p : st.parents) {
      SSR_CHECK_MSG(p < i,
                    "stages must be topologically ordered (parent index must "
                    "precede child)");
      children_[p].push_back(i);
    }
    if (st.parents.empty()) roots_.push_back(i);
    total_tasks_ += st.num_tasks;
  }
  SSR_CHECK_MSG(!roots_.empty(), "job DAG has no root stage");
}

std::optional<std::uint32_t> JobGraph::downstream_parallelism(
    std::uint32_t index) const {
  if (!spec_.parallelism_known) return std::nullopt;
  const auto& kids = children_.at(index);
  if (kids.empty()) return std::nullopt;
  std::uint32_t total = 0;
  for (std::uint32_t c : kids) total += spec_.stages[c].num_tasks;
  return total;
}

std::optional<std::uint32_t> JobGraph::first_child(std::uint32_t index) const {
  const auto& kids = children_.at(index);
  if (kids.empty()) return std::nullopt;
  return kids.front();
}

JobBuilder::JobBuilder(std::string name) { spec_.name = std::move(name); }

JobBuilder& JobBuilder::priority(int p) {
  spec_.priority = p;
  return *this;
}

JobBuilder& JobBuilder::submit_at(SimTime t) {
  spec_.submit_time = t;
  return *this;
}

JobBuilder& JobBuilder::parallelism_known(bool known) {
  spec_.parallelism_known = known;
  return *this;
}

JobBuilder& JobBuilder::fair_weight(double w) {
  SSR_CHECK_MSG(w > 0.0, "fair weight must be positive");
  spec_.fair_weight = w;
  return *this;
}

JobBuilder& JobBuilder::stage(std::uint32_t num_tasks,
                              DurationDistPtr duration) {
  std::vector<std::uint32_t> parents;
  if (!spec_.stages.empty()) {
    parents.push_back(static_cast<std::uint32_t>(spec_.stages.size()) - 1);
  }
  return stage_with_parents(num_tasks, std::move(duration),
                            std::move(parents));
}

JobBuilder& JobBuilder::stage_with_parents(std::uint32_t num_tasks,
                                           DurationDistPtr duration,
                                           std::vector<std::uint32_t> parents) {
  StageSpec st;
  st.num_tasks = num_tasks;
  st.duration = std::move(duration);
  st.parents = std::move(parents);
  spec_.stages.push_back(std::move(st));
  return *this;
}

JobBuilder& JobBuilder::explicit_durations(std::vector<double> durations) {
  SSR_CHECK_MSG(!spec_.stages.empty(), "add a stage first");
  spec_.stages.back().explicit_durations = std::move(durations);
  return *this;
}

JobBuilder& JobBuilder::demand(Resources demand) {
  SSR_CHECK_MSG(!spec_.stages.empty(), "add a stage first");
  SSR_CHECK_MSG(demand.cpu > 0.0 && demand.memory > 0.0,
                "resource demand must be positive");
  spec_.stages.back().demand = demand;
  return *this;
}

JobSpec JobBuilder::build() { return std::move(spec_); }

}  // namespace ssr
