// Unit tests for the EventQueue and its move-only callback type: time
// ordering, same-instant FIFO, interleaved push/pop, move-only callable
// support (the properties the simulator's determinism rests on), plus a
// seeded randomized differential against a reference model of the
// (time, band, insertion order) contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/sim/event_queue.h"

namespace ssr {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  while (!q.empty()) {
    auto [at, fn] = q.pop();
    fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameInstantFifo) {
  // Tie-break by insertion order must hold for many events at one instant —
  // a plain (time)-keyed heap would pop them in arbitrary sift order.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, InterleavedPushPopKeepsOrdering) {
  // Pops interleaved with pushes (the simulator's actual usage: callbacks
  // schedule new events).  Sequence numbers must keep FIFO among equal
  // times even across partial drains.
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(10); });
  q.push(2.0, [&] { order.push_back(20); });
  q.pop().second();  // fires 10
  q.push(2.0, [&] { order.push_back(21); });
  q.push(1.5, [&] { order.push_back(15); });
  q.pop().second();  // fires 15
  q.push(2.0, [&] { order.push_back(22); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{10, 15, 20, 21, 22}));
}

TEST(EventQueue, NextTimeOnEmptyIsInfinity) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeInfinity);
  q.push(4.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 4.0);
  q.pop();
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, MoveOnlyCallbacksAreSupported) {
  // std::function would reject this lambda (unique_ptr capture makes it
  // non-copyable); the queue's UniqueCallback only ever moves.
  EventQueue q;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  q.push(1.0, [p = std::move(payload), &seen] { seen = *p; });
  auto [at, fn] = q.pop();
  EXPECT_DOUBLE_EQ(at, 1.0);
  fn();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueue, PopMovesCallbackOut) {
  // The callback owns its captures after pop(): destroying the queue before
  // invoking must be safe (pop transfers, not references).
  auto q = std::make_unique<EventQueue>();
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  q->push(1.0, [p = std::move(payload), &seen] { seen = *p; });
  auto [at, fn] = q->pop();
  q.reset();
  fn();
  EXPECT_EQ(seen, 7);
}

TEST(EventQueue, RejectsEmptyCallbackAndEmptyPop) {
  EventQueue q;
  EXPECT_THROW(q.push(1.0, UniqueCallback{}), CheckError);
  EXPECT_THROW(q.pop(), CheckError);
}

TEST(EventQueue, BandsOrderSameInstantEvents) {
  // At one timestamp, failures precede arrivals precede internal events —
  // regardless of push order.  This is the tie-break the open-vs-closed
  // equivalence rests on: a closed harness pushes failure schedules first
  // and all arrivals before any internal event, so seq order coincides with
  // band order there; open-mode submission reproduces it via bands alone.
  EventQueue q;
  std::vector<int> order;
  q.push(5.0, EventBand::kInternal, [&] { order.push_back(2); });
  q.push(5.0, EventBand::kArrival, [&] { order.push_back(1); });
  q.push(5.0, EventBand::kFailure, [&] { order.push_back(0); });
  q.push(5.0, EventBand::kInternal, [&] { order.push_back(3); });
  q.push(5.0, EventBand::kArrival, [&] { order.push_back(11); });
  q.push(5.0, EventBand::kFailure, [&] { order.push_back(10); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 11, 2, 3}));
}

TEST(EventQueue, BandsLoseToTime) {
  // Bands only break exact-time ties; an earlier internal event still beats
  // a later failure.
  EventQueue q;
  std::vector<int> order;
  q.push(2.0, EventBand::kFailure, [&] { order.push_back(2); });
  q.push(1.0, EventBand::kInternal, [&] { order.push_back(1); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, PopIfAtOrBeforeIsBounded) {
  // The bounded-advance primitive must pop events at or before the horizon
  // — boundary inclusive — and must not pop (not even inspect-and-drop)
  // anything strictly past it.
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  q.push(3.0, [&] { order.push_back(3); });

  auto ev = q.pop_if_at_or_before(2.0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_DOUBLE_EQ(ev->first, 1.0);
  ev->second();

  ev = q.pop_if_at_or_before(2.0);  // exactly at the horizon: fires
  ASSERT_TRUE(ev.has_value());
  EXPECT_DOUBLE_EQ(ev->first, 2.0);
  ev->second();

  ev = q.pop_if_at_or_before(2.0);  // 3.0 is past the horizon: stays queued
  EXPECT_FALSE(ev.has_value());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.peek_time(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, BoundedAdvanceRespectsBandsOnHorizonTie) {
  // The satellite case: an injected failure and a stage completion tied at
  // the advance horizon.  advance_to(t) must fire both (boundary is
  // inclusive) with the failure first, and must not over-step past t.
  EventQueue q;
  std::vector<int> order;
  q.push(7.0, EventBand::kInternal, [&] { order.push_back(2); });  // completion
  q.push(7.0, EventBand::kFailure, [&] { order.push_back(1); });  // failure
  q.push(7.0 + 1e-9, EventBand::kFailure, [&] { order.push_back(3); });

  while (auto ev = q.pop_if_at_or_before(7.0)) ev->second();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // failure won the tie
  EXPECT_EQ(q.size(), 1u);  // the epsilon-later failure was not over-stepped
}

TEST(EventQueue, InfiniteTimeEventsPopLast) {
  // kTimeInfinity sentinels order after every finite event, FIFO among
  // themselves.
  EventQueue q;
  std::vector<int> order;
  q.push(kTimeInfinity, [&] { order.push_back(99); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(kTimeInfinity, [&] { order.push_back(100); });
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 99, 100}));
}

TEST(EventQueue, DestructionWithPendingEventsIsClean) {
  // Queued callbacks (and their captured state) are destroyed with the
  // queue; ASan/LSan builds catch a leak or double free here.
  auto q = std::make_unique<EventQueue>();
  auto payload = std::make_unique<int>(5);
  for (int i = 0; i < 100; ++i) {
    q->push(static_cast<double>(i), EventBand::kInternal, [] {});
  }
  q->push(1.0, [p = std::move(payload)] {});
  q.reset();
}

// --- Randomized differential against a reference model ----------------------

/// A pending event in the reference model: the queue must pop events in
/// exactly the order a stable sort by (time, band) of the push sequence
/// gives, i.e. by (time, band, push index).
struct ModelEvent {
  double at;
  EventBand band;
  int id;  ///< push index
};

bool model_earlier(const ModelEvent& a, const ModelEvent& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.band != b.band) return a.band < b.band;
  return a.id < b.id;
}

TEST(EventQueue, RandomOpsMatchStableSortReference) {
  // Mixes pushes (clustered exact ties on a coarse grid, spread times,
  // far-future and "now" events, all three bands) with pop and bounded
  // pop_if_at_or_before, checking every popped event and the peek time
  // against the model after each operation.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    EventQueue q;
    std::vector<ModelEvent> model;
    std::vector<int> fired;
    double now = 0.0;  // pops only ever raise the popped time
    int next_id = 0;

    auto check_pop = [&](std::pair<SimTime, UniqueCallback> ev) {
      ASSERT_FALSE(model.empty());
      const auto best =
          std::min_element(model.begin(), model.end(), model_earlier);
      const ModelEvent want = *best;
      model.erase(best);
      ev.second();
      ASSERT_EQ(ev.first, want.at) << "seed " << seed;
      ASSERT_EQ(fired.back(), want.id) << "seed " << seed;
      now = want.at;
    };

    for (int op = 0; op < 2000; ++op) {
      const double r = uni(rng);
      if (!model.empty() && r < 0.25) {
        check_pop(q.pop());
      } else if (!model.empty() && r < 0.40) {
        // Horizons at, between and past pending times, ties included.
        const double horizon = now + static_cast<double>(rng() % 6);
        const bool due = std::any_of(
            model.begin(), model.end(),
            [&](const ModelEvent& e) { return e.at <= horizon; });
        auto ev = q.pop_if_at_or_before(horizon);
        ASSERT_EQ(ev.has_value(), due) << "seed " << seed << " op " << op;
        if (ev) check_pop(std::move(*ev));
      } else {
        ModelEvent e;
        const double kind = uni(rng);
        if (kind < 0.4) {
          e.at = now + static_cast<double>(rng() % 8);  // exact-tie grid
        } else if (kind < 0.8) {
          e.at = now + uni(rng) * 100.0;
        } else if (kind < 0.95) {
          e.at = now + uni(rng) * 5.0e7;
        } else {
          e.at = now;
        }
        e.band = static_cast<EventBand>(rng() % 3);
        e.id = next_id++;
        q.push(e.at, e.band, [&fired, id = e.id] { fired.push_back(id); });
        model.push_back(e);
      }
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(q.size(), model.size());
      const double model_next =
          model.empty()
              ? kTimeInfinity
              : std::min_element(model.begin(), model.end(), model_earlier)
                    ->at;
      ASSERT_EQ(q.next_time(), model_next) << "seed " << seed << " op " << op;
    }
    while (!q.empty()) {
      check_pop(q.pop());
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(model.empty());
  }
}

}  // namespace
}  // namespace ssr
