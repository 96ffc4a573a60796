#include "tracing.h"

#include "ssr/sim/cluster.h"

namespace perfbench {

using namespace ssr;

// --- TimedHook ---------------------------------------------------------------

void TimedHook::on_task_finished(Engine& e, const TaskFinishInfo& info) {
  ++hook_calls_;
  Span span(spans_, Layer::kCore);
  inner_->on_task_finished(e, info);
}

void TimedHook::on_task_killed(Engine& e, const TaskFinishInfo& info) {
  ++hook_calls_;
  Span span(spans_, Layer::kCore);
  inner_->on_task_killed(e, info);
}

void TimedHook::on_slot_idle(Engine& e, SlotId slot) {
  ++hook_calls_;
  Span span(spans_, Layer::kCore);
  inner_->on_slot_idle(e, slot);
}

void TimedHook::on_slot_failed(Engine& e, SlotId slot) {
  ++hook_calls_;
  Span span(spans_, Layer::kCore);
  inner_->on_slot_failed(e, slot);
}

bool TimedHook::approve(const Engine& e, SlotId slot, JobId job,
                        int priority) const {
  ++approve_calls_;
  return inner_->approve(e, slot, job, priority);
}

void TimedHook::on_stage_submitted(Engine& e, StageId stage) {
  ++hook_calls_;
  Span span(spans_, Layer::kCore);
  inner_->on_stage_submitted(e, stage);
}

void TimedHook::on_stage_fully_placed(Engine& e, StageId stage) {
  ++hook_calls_;
  Span span(spans_, Layer::kCore);
  inner_->on_stage_fully_placed(e, stage);
}

void TimedHook::on_task_started(Engine& e, TaskId task, SlotId slot) {
  ++hook_calls_;
  Span span(spans_, Layer::kCore);
  inner_->on_task_started(e, task, slot);
}

void TimedHook::on_job_finished(Engine& e, JobId job) {
  ++hook_calls_;
  Span span(spans_, Layer::kCore);
  inner_->on_job_finished(e, job);
}

// --- TimedObserver -----------------------------------------------------------

void TimedObserver::on_job_submitted(const Engine& e, JobId j) {
  forward([&] { inner_.on_job_submitted(e, j); });
}
void TimedObserver::on_job_finished(const Engine& e, JobId j) {
  forward([&] { inner_.on_job_finished(e, j); });
}
void TimedObserver::on_stage_submitted(const Engine& e, StageId s) {
  forward([&] { inner_.on_stage_submitted(e, s); });
}
void TimedObserver::on_stage_finished(const Engine& e, StageId s) {
  forward([&] { inner_.on_stage_finished(e, s); });
}
void TimedObserver::on_task_started(const Engine& e, TaskId t, SlotId s) {
  forward([&] { inner_.on_task_started(e, t, s); });
}
void TimedObserver::on_task_finished(const Engine& e, TaskId t, SlotId s) {
  forward([&] { inner_.on_task_finished(e, t, s); });
}
void TimedObserver::on_task_killed(const Engine& e, TaskId t, SlotId s) {
  forward([&] { inner_.on_task_killed(e, t, s); });
}
void TimedObserver::on_task_failed(const Engine& e, TaskId t, SlotId s) {
  forward([&] { inner_.on_task_failed(e, t, s); });
}
void TimedObserver::on_task_requeued(const Engine& e, TaskId t) {
  forward([&] { inner_.on_task_requeued(e, t); });
}
void TimedObserver::on_stage_invalidated(const Engine& e, StageId s) {
  forward([&] { inner_.on_stage_invalidated(e, s); });
}
void TimedObserver::on_slot_failed(const Engine& e, SlotId s) {
  forward([&] { inner_.on_slot_failed(e, s); });
}
void TimedObserver::on_slot_recovered(const Engine& e, SlotId s) {
  forward([&] { inner_.on_slot_recovered(e, s); });
}
void TimedObserver::on_slot_reserved(const Engine& e, SlotId s,
                                     const Reservation& r) {
  forward([&] { inner_.on_slot_reserved(e, s, r); });
}
void TimedObserver::on_reservation_released(const Engine& e, SlotId s,
                                            ReservationEndReason why) {
  forward([&] { inner_.on_reservation_released(e, s, why); });
}
void TimedObserver::on_run_complete(const Engine& e) {
  forward([&] { inner_.on_run_complete(e); });
}

// --- OccupancyObserver -------------------------------------------------------

OccupancyObserver::OccupancyObserver(std::uint32_t num_slots)
    : state_(num_slots, kIdle) {
  counts_[kIdle] = num_slots;
}

void OccupancyObserver::move(SlotId slot, State to) {
  State& from = state_.at(slot.v);
  --counts_[from];
  ++counts_[to];
  from = to;
}

bool OccupancyObserver::matches(const Engine& engine) const {
  const Cluster& cluster = engine.cluster();
  if (cluster.num_slots() != state_.size()) return false;
  for (std::uint32_t i = 0; i < cluster.num_slots(); ++i) {
    State expected = kIdle;
    switch (cluster.slot(SlotId{i}).state()) {
      case SlotState::Idle:
        expected = kIdle;
        break;
      case SlotState::Busy:
        expected = kBusy;
        break;
      case SlotState::ReservedIdle:
        expected = kReserved;
        break;
      case SlotState::Dead:
        expected = kDead;
        break;
    }
    if (state_[i] != expected) return false;
  }
  return true;
}

void OccupancyObserver::on_task_started(const Engine&, TaskId t, SlotId s) {
  ++tasks_started;
  if (t.attempt > 0) ++copies_launched;
  if (state_.at(s.v) == kReserved) ++reservations_claimed;
  move(s, kBusy);
}

void OccupancyObserver::on_task_finished(const Engine&, TaskId, SlotId s) {
  ++tasks_finished;
  move(s, kIdle);
}

void OccupancyObserver::on_task_killed(const Engine&, TaskId, SlotId s) {
  ++tasks_killed;
  move(s, kIdle);
}

void OccupancyObserver::on_task_failed(const Engine&, TaskId, SlotId s) {
  move(s, kIdle);
}

void OccupancyObserver::on_slot_failed(const Engine&, SlotId s) {
  move(s, kDead);
}

void OccupancyObserver::on_slot_recovered(const Engine&, SlotId s) {
  move(s, kIdle);
}

void OccupancyObserver::on_slot_reserved(const Engine&, SlotId s,
                                         const Reservation&) {
  ++reservations_made;
  move(s, kReserved);
}

void OccupancyObserver::on_reservation_released(const Engine&, SlotId s,
                                                ReservationEndReason why) {
  if (why == ReservationEndReason::Expired) {
    ++reservations_expired;
  } else {
    ++reservations_released;
  }
  move(s, kIdle);
}

}  // namespace perfbench
