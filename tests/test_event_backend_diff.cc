// The event core's two orderings, checked against each other and against
// a reference.
//
// sim::EventQueue keeps its pending keys on a 4-ary heap below
// kWheelThreshold (64) pending events and on the hierarchical timing wheel
// above, moving every key to the wheel when an insert finds 64 pending
// and back to the heap when a pop empties it.  The switch is only allowed
// because it is unobservable: both structures pop in the exact (time, seq)
// order, so which one holds the keys never changes which event fires next.
// This suite is that proof at two altitudes:
//
//   * Structure level: a seeded op stream is replayed into a bare
//     util::TimingWheel and a util::DaryHeap; every pop must agree, across
//     same-instant clusters, sub-tick coincidences, far horizons and the
//     drain-and-reinsert path the wheel's resolution adaptation takes.
//   * Queue level: the switch itself, and a fuzz of the queue (one-shot
//     schedules, cancel bursts, persistent-timer arm / re-arm / disarm)
//     against a test-side (time, seq) reference while the pending count
//     repeatedly crosses 64 and drains to empty.
//
// Whole net-level runs are pinned across commits by their digests in
// tests/golden_digests.txt (test_golden_digests).

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "util/dary_heap.h"
#include "util/timing_wheel.h"

namespace ispn::sim {
namespace {

// --- structure level -------------------------------------------------------

struct WheelKey {
  double t = 0;
  std::uint64_t seq = 0;
};

struct WheelKeyLess {
  bool operator()(const WheelKey& a, const WheelKey& b) const {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }
};

TEST(EventOrderDiff, TimingWheelPopsInDaryHeapOrder) {
  constexpr double kTicksPerSec = 131072.0;  // 2^17, the queue's base rate
  const auto tick_of = [](double t) {
    return static_cast<std::uint64_t>(std::floor(t * kTicksPerSec));
  };
  for (const std::uint64_t seed : {3u, 4u, 5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::TimingWheel<WheelKey, WheelKeyLess> wheel;
    util::DaryHeap<WheelKey, WheelKeyLess> heap;
    std::mt19937_64 rng(seed);
    double now = 0;
    std::uint64_t seq = 0;
    std::uint64_t pops = 0;
    int drains = 0;
    std::vector<WheelKey> drained;
    for (int step = 0; step < 60000; ++step) {
      const auto op = rng() % 16;
      if (op < 9) {  // insert at a mixed horizon from the current instant
        double dt = 0;
        switch (rng() % 5) {
          case 0: dt = 0.0; break;                                     // same instant
          case 1: dt = 1e-9 * static_cast<double>(rng() % 50); break;  // sub-tick
          case 2: dt = 1e-4 * static_cast<double>(1 + rng() % 100); break;
          case 3: dt = 1e-2 * static_cast<double>(1 + rng() % 100); break;
          default: dt = 10.0 * static_cast<double>(1 + rng() % 10); break;
        }
        const WheelKey k{now + dt, seq++};
        wheel.insert(k, tick_of(k.t));
        heap.push(k);
      } else if (op == 15 && rng() % 16 == 0 && !wheel.empty()) {
        // The resolution-adaptation path: every key out, then back in.
        drained.clear();
        wheel.drain_into(drained, tick_of(now));
        for (const WheelKey& k : drained) wheel.insert(k, tick_of(k.t));
        ++drains;
      } else if (!heap.empty()) {  // pop
        const WheelKey want = heap.pop();
        const WheelKey got = wheel.pop_front();
        ASSERT_EQ(got.t, want.t) << "step " << step;
        ASSERT_EQ(got.seq, want.seq) << "step " << step;
        now = want.t;
        ++pops;
      }
      ASSERT_EQ(wheel.size(), heap.size()) << "step " << step;
    }
    while (!heap.empty()) {
      const WheelKey want = heap.pop();
      const WheelKey got = wheel.pop_front();
      ASSERT_EQ(got.t, want.t);
      ASSERT_EQ(got.seq, want.seq);
      ++pops;
    }
    EXPECT_TRUE(wheel.empty());
    EXPECT_GT(pops, 30000u);
    EXPECT_GT(drains, 50);
  }
}

// --- queue level -----------------------------------------------------------

TEST(EventQueueSwitch, MovesToWheelAbove64AndBackAtDrain) {
  EventQueue q;
  // The heap holds up to kWheelThreshold keys; the next insert moves
  // every key to the wheel.
  for (std::size_t i = 0; i < EventQueue::kWheelThreshold; ++i) {
    q.schedule(0.001 * static_cast<double>(i + 1), [] {});
  }
  EXPECT_FALSE(q.on_wheel());
  for (int i = 0; i < 136; ++i) q.schedule(0.1 + 0.001 * i, [] {});
  EXPECT_TRUE(q.on_wheel());
  std::vector<Time> times;
  while (!q.empty()) {
    times.push_back(q.pop().time);
    if (!q.empty()) {
      EXPECT_TRUE(q.on_wheel()) << "left the wheel early";
    }
  }
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LT(times[i - 1], times[i]);
  }
  // Drained: back on the heap, and small loads stay there.
  EXPECT_FALSE(q.on_wheel());
  q.schedule(1.0, [] {});
  EXPECT_FALSE(q.on_wheel());
}

// Seeded op streams (one-shot schedules across mixed horizons, cancel
// bursts, persistent-timer arm / re-arm / disarm, interleaved pops) are
// checked step by step against a test-side (time, seq) reference.  The
// streams alternate fill phases, which push the pending count past the
// wheel threshold, and drain phases, which pop the queue empty (where it
// goes back to the heap), several times per seed.
TEST(EventQueueSwitch, FuzzMatchesTimeSeqReference) {
  struct Entry {
    int tag = 0;
    EventId id = kInvalidEventId;  ///< one-shot handle (kInvalid: timer)
    int timer = -1;
  };
  using Key = std::pair<Time, std::uint64_t>;
  constexpr int kTimers = 4;

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed * 0x9E3779B9u + 17);
    EventQueue q;
    Time now = 0;
    std::uint64_t next_seq = 0;
    std::map<Key, Entry> ref;
    std::map<EventId, Key> one_shots;
    std::array<std::optional<Key>, kTimers> timer_keys;
    std::array<int, kTimers> timer_tags{};
    std::array<InlineAction, kTimers> timer_actions;
    std::array<TimerSlot, kTimers> timers{};
    int last_fired = -1;
    for (int t = 0; t < kTimers; ++t) {
      timer_actions[t] = InlineAction(
          [&last_fired, &timer_tags, t] { last_fired = timer_tags[t]; });
      timers[t] = q.create_timer(&timer_actions[t]);
    }
    int next_tag = 0;
    int pops = 0;
    int to_wheel = 0;
    int to_heap = 0;
    bool was_wheel = false;

    const auto horizon = [&rng]() -> double {
      switch (rng() % 5) {
        case 0: return 0.0;                                     // same instant
        case 1: return 1e-9 * static_cast<double>(rng() % 50);  // sub-tick
        case 2: return 1e-4 * static_cast<double>(1 + rng() % 100);
        case 3: return 1e-2 * static_cast<double>(1 + rng() % 100);
        default: return 10.0 * static_cast<double>(1 + rng() % 10);
      }
    };
    const auto pop_one = [&] {
      ASSERT_FALSE(ref.empty());
      const auto [key, want] = *ref.begin();
      ref.erase(ref.begin());
      if (want.timer >= 0) {
        timer_keys[want.timer].reset();
      } else {
        one_shots.erase(want.id);
      }
      ASSERT_DOUBLE_EQ(q.next_time(), key.first);
      auto fired = q.pop();
      ASSERT_EQ(fired.time, key.first);
      now = fired.time;
      fired();
      ASSERT_EQ(last_fired, want.tag) << "at t=" << key.first;
      ++pops;
    };
    const auto note_switch = [&] {
      if (q.on_wheel() != was_wheel) {
        was_wheel = q.on_wheel();
        (was_wheel ? to_wheel : to_heap) += 1;
      }
    };

    for (int cycle = 0; cycle < 6; ++cycle) {
      // Fill: grow well past the threshold amid cancels and timer churn
      // (schedules outnumber removals, so the population drifts upward).
      const std::size_t peak = 80 + rng() % 200;
      while (ref.size() < peak) {
        switch (rng() % 10) {
          case 0:
          case 1:
          case 2:
          case 3:
          case 4:
          case 5: {  // schedule a one-shot
            const int tag = next_tag++;
            const Time at = now + horizon();
            const EventId id =
                q.schedule(at, [&last_fired, tag] { last_fired = tag; });
            const Key key{at, next_seq++};
            ref[key] = Entry{tag, id, -1};
            one_shots[id] = key;
            break;
          }
          case 6: {  // cancel burst
            for (int n = 1 + static_cast<int>(rng() % 4); n > 0; --n) {
              if (one_shots.empty()) break;
              auto it = one_shots.begin();
              std::advance(it, rng() % one_shots.size());
              ref.erase(it->second);
              ASSERT_TRUE(q.cancel(it->first));
              ASSERT_FALSE(q.cancel(it->first));
              one_shots.erase(it);
            }
            break;
          }
          case 7: {  // (re-)arm a timer: supersedes any pending arm
            const int t = static_cast<int>(rng() % kTimers);
            if (timer_keys[t]) ref.erase(*timer_keys[t]);
            timer_tags[t] = next_tag++;
            const Time at = now + horizon();
            q.arm_timer(timers[t], at);
            const Key key{at, next_seq++};
            ref[key] = Entry{timer_tags[t], kInvalidEventId, t};
            timer_keys[t] = key;
            break;
          }
          case 8: {  // disarm a timer
            const int t = static_cast<int>(rng() % kTimers);
            ASSERT_EQ(q.disarm_timer(timers[t]), timer_keys[t].has_value());
            if (timer_keys[t]) ref.erase(*timer_keys[t]);
            timer_keys[t].reset();
            break;
          }
          default: {  // pop a short burst
            for (int n = static_cast<int>(rng() % 4); n > 0 && !ref.empty();
                 --n) {
              pop_one();
              if (HasFatalFailure()) return;
            }
            break;
          }
        }
        ASSERT_EQ(q.size(), ref.size());
        note_switch();
      }
      // Drain: pop to empty, with an occasional cancel mid-way.  The last
      // event is always popped: only a pop that empties the queue sends
      // it back to the heap.
      while (!ref.empty()) {
        if (rng() % 16 == 0 && !one_shots.empty() && ref.size() > 1) {
          const auto it = one_shots.begin();
          ref.erase(it->second);
          ASSERT_TRUE(q.cancel(it->first));
          one_shots.erase(it);
          continue;
        }
        pop_one();
        if (HasFatalFailure()) return;
        note_switch();
      }
      ASSERT_TRUE(q.empty());
    }
    // The switch really happened in both directions, every cycle.
    EXPECT_GT(pops, 1000);
    EXPECT_GE(to_wheel, 6);
    EXPECT_GE(to_heap, 5);
    for (const TimerSlot t : timers) q.destroy_timer(t);
  }
}

}  // namespace
}  // namespace ispn::sim
