// Layer tracing from outside the program: spans around the calls into each
// layer, a forwarding ReservationHook, forwarding EngineObservers, and a
// counting observer that derives slot occupancy and reservation outcomes
// from the observer callbacks.  None of this is attached to an untraced run.
//
// Spans nest the way the engine calls them — a step (sched) calls the hook
// (core), the hook calls back into the engine, which fans out to observers
// (metrics) — so a layer's self time is its span time minus the time of the
// spans opened inside it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "ssr/core/reservation_manager.h"
#include "ssr/sched/engine.h"
#include "ssr/sched/types.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kWorkload,  ///< input generation
  kSched,     ///< Engine::submit / advance_to / drain, minus nested spans
  kVc,        ///< VirtualClusterManager::submit_job
  kFailure,   ///< detect_failures
  kCore,      ///< reservation hook callbacks (approve is counted, not timed)
  kMetrics,   ///< metric collectors, trace recorder, engine metrics
  kTracer,    ///< the benchmark's own counting observer (overhead only)
  kCount,
};

/// Self-time accumulator over a stack of open spans.
class Spans {
 public:
  void begin() { stack_.push_back({now_ns(), 0}); }
  void end(Layer layer) {
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t total = now_ns() - open.start;
    self_ns_[static_cast<std::size_t>(layer)] += total - open.child;
    if (!stack_.empty()) stack_.back().child += total;
  }
  double self_s(Layer layer) const {
    return static_cast<double>(self_ns_[static_cast<std::size_t>(layer)]) *
           1e-9;
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  struct Open {
    std::int64_t start;
    std::int64_t child;
  };
  std::vector<Open> stack_;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self_ns_{};
};

/// RAII span: opened on construction, closed into `layer` on destruction.
class Span {
 public:
  Span(Spans& spans, Layer layer) : spans_(spans), layer_(layer) {
    spans_.begin();
  }
  ~Span() { spans_.end(layer_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
  Layer layer_;
};

/// Forwards every hook callback to a ReservationManager inside a core span.
/// approve() runs hundreds of thousands of times per run, so it is counted
/// but not timed; its cost stays in the sched layer.
class TimedHook final : public ssr::ReservationHook {
 public:
  TimedHook(std::unique_ptr<ssr::ReservationManager> inner, Spans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  /// The wrapped manager (its reservations_expired() feeds the RunResult).
  const ssr::ReservationManager& inner() const { return *inner_; }
  std::uint64_t hook_calls() const { return hook_calls_; }
  std::uint64_t approve_calls() const { return approve_calls_; }

  void on_task_finished(ssr::Engine& e,
                        const ssr::TaskFinishInfo& info) override;
  void on_task_killed(ssr::Engine& e,
                      const ssr::TaskFinishInfo& info) override;
  void on_slot_idle(ssr::Engine& e, ssr::SlotId slot) override;
  void on_slot_failed(ssr::Engine& e, ssr::SlotId slot) override;
  bool approve(const ssr::Engine& e, ssr::SlotId slot, ssr::JobId job,
               int priority) const override;
  ssr::ReservedApprovalModel reserved_approval_model() const override {
    return inner_->reserved_approval_model();
  }
  void on_stage_submitted(ssr::Engine& e, ssr::StageId stage) override;
  void on_stage_fully_placed(ssr::Engine& e, ssr::StageId stage) override;
  void on_task_started(ssr::Engine& e, ssr::TaskId task,
                       ssr::SlotId slot) override;
  void on_job_finished(ssr::Engine& e, ssr::JobId job) override;

 private:
  std::unique_ptr<ssr::ReservationManager> inner_;
  Spans& spans_;
  std::uint64_t hook_calls_ = 0;
  mutable std::uint64_t approve_calls_ = 0;
};

/// Forwards every observer callback to `inner` inside a span of `layer`,
/// counting callbacks into `callbacks`.
class TimedObserver final : public ssr::EngineObserver {
 public:
  TimedObserver(ssr::EngineObserver& inner, Spans& spans, Layer layer,
                std::uint64_t& callbacks)
      : inner_(inner), spans_(spans), layer_(layer), callbacks_(callbacks) {}

  void on_job_submitted(const ssr::Engine& e, ssr::JobId j) override;
  void on_job_finished(const ssr::Engine& e, ssr::JobId j) override;
  void on_stage_submitted(const ssr::Engine& e, ssr::StageId s) override;
  void on_stage_finished(const ssr::Engine& e, ssr::StageId s) override;
  void on_task_started(const ssr::Engine& e, ssr::TaskId t,
                       ssr::SlotId s) override;
  void on_task_finished(const ssr::Engine& e, ssr::TaskId t,
                        ssr::SlotId s) override;
  void on_task_killed(const ssr::Engine& e, ssr::TaskId t,
                      ssr::SlotId s) override;
  void on_task_failed(const ssr::Engine& e, ssr::TaskId t,
                      ssr::SlotId s) override;
  void on_task_requeued(const ssr::Engine& e, ssr::TaskId t) override;
  void on_stage_invalidated(const ssr::Engine& e, ssr::StageId s) override;
  void on_slot_failed(const ssr::Engine& e, ssr::SlotId s) override;
  void on_slot_recovered(const ssr::Engine& e, ssr::SlotId s) override;
  void on_slot_reserved(const ssr::Engine& e, ssr::SlotId s,
                        const ssr::Reservation& r) override;
  void on_reservation_released(const ssr::Engine& e, ssr::SlotId s,
                               ssr::ReservationEndReason why) override;
  void on_run_complete(const ssr::Engine& e) override;

 private:
  template <typename Call>
  void forward(const Call& call) {
    ++callbacks_;
    Span span(spans_, layer_);
    call();
  }

  ssr::EngineObserver& inner_;
  Spans& spans_;
  Layer layer_;
  std::uint64_t& callbacks_;
};

/// Mirrors every slot's state from the callbacks alone (no cluster index is
/// read), so occupancy can be sampled at step boundaries in O(1), and counts
/// reservation outcomes and task attempts.
class OccupancyObserver final : public ssr::EngineObserver {
 public:
  explicit OccupancyObserver(std::uint32_t num_slots);

  std::uint32_t idle() const { return counts_[kIdle]; }
  std::uint32_t reserved() const { return counts_[kReserved]; }
  /// True iff every slot's mirrored state equals the engine's.
  bool matches(const ssr::Engine& engine) const;

  std::uint64_t tasks_started = 0;
  std::uint64_t tasks_finished = 0;
  std::uint64_t tasks_killed = 0;
  std::uint64_t copies_launched = 0;  ///< starts with TaskId::attempt > 0
  std::uint64_t reservations_made = 0;
  /// Task starts on a reserved slot: by the reserving job or by a
  /// higher-priority override (both consume the reservation).
  std::uint64_t reservations_claimed = 0;
  std::uint64_t reservations_released = 0;  ///< policy release or slot death
  std::uint64_t reservations_expired = 0;

  void on_task_started(const ssr::Engine&, ssr::TaskId t,
                       ssr::SlotId s) override;
  void on_task_finished(const ssr::Engine&, ssr::TaskId,
                        ssr::SlotId s) override;
  void on_task_killed(const ssr::Engine&, ssr::TaskId,
                      ssr::SlotId s) override;
  void on_task_failed(const ssr::Engine&, ssr::TaskId,
                      ssr::SlotId s) override;
  void on_slot_failed(const ssr::Engine&, ssr::SlotId s) override;
  void on_slot_recovered(const ssr::Engine&, ssr::SlotId s) override;
  void on_slot_reserved(const ssr::Engine&, ssr::SlotId s,
                        const ssr::Reservation&) override;
  void on_reservation_released(const ssr::Engine&, ssr::SlotId s,
                               ssr::ReservationEndReason why) override;

 private:
  enum State : std::uint8_t { kIdle, kBusy, kReserved, kDead, kStates };
  void move(ssr::SlotId slot, State to);
  std::vector<State> state_;
  std::array<std::uint32_t, kStates> counts_{};
};

}  // namespace perfbench
