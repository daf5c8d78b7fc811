// The virtual-time ordering's two structures, checked against each other
// and against a reference.
//
// util::OrderIndex — the tag order under WFQ and the unified scheduler —
// keeps its entries on util::IndexedDaryHeap below kCalendarAt (48)
// entries and on util::IndexedCalendarQueue from there, going back to the
// heap at kHeapAt (12) or fewer.  The switch is only allowed because it is
// unobservable: both structures pop in the same (key, id) total order, so
// departures and V(t) are bit-identical whichever one serves a pop.  This
// suite is that proof:
//
//   * the calendar replays a seeded op stream in lockstep with the heap,
//     with keys on a coarse grid so equal-key ties occur constantly;
//   * OrderIndex is fuzzed against a sorted (key, id) reference while its
//     population repeatedly crosses both thresholds, asserting that both
//     migrations really happen.
//
// Whole WFQ and unified scheduler runs (departures plus V(t) bits) are
// pinned across commits by their digests in tests/golden_digests.txt
// (test_golden_digests), and test_wfq drives both WFQ orderings onto the
// calendar and back against the closed-form GPS clock.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <utility>

#include "util/calendar_queue.h"
#include "util/indexed_heap.h"

namespace ispn {
namespace {

using Calendar = util::IndexedCalendarQueue<double, std::less<double>>;

TEST(CalendarQueue, RandomisedAgainstIndexedHeap) {
  // Same op stream into both structures: pops and tops must agree exactly,
  // including ties.  Keys are drawn from a coarse grid so identical keys
  // (the degenerate WFQ pattern) occur constantly.
  Calendar c;
  util::IndexedDaryHeap<double, std::less<double>> h;
  std::mt19937 rng(71);
  for (int step = 0; step < 50000; ++step) {
    const auto op = rng() % 5;
    const std::uint32_t id = rng() % 48;
    if (op <= 2) {
      const double k = static_cast<double>(rng() % 512) * 0.125;
      c.upsert(id, k);
      h.upsert(id, k);
    } else if (op == 3) {
      EXPECT_EQ(c.erase(id), h.erase(id));
    } else if (!h.empty()) {
      const auto ce = c.pop();
      const auto he = h.pop();
      ASSERT_EQ(ce.id, he.id);
      ASSERT_EQ(ce.key, he.key);
    }
    ASSERT_EQ(c.size(), h.size());
    if (!h.empty()) {
      ASSERT_EQ(c.top().key, h.top().key);
    }
  }
}

TEST(OrderIndex, SizeSwitchMatchesSortedReference) {
  // A saw-tooth population that repeatedly crosses kCalendarAt upward and
  // kHeapAt downward, under re-keys, erases and pops, checked op by op
  // against a sorted (key, id) reference.  Keys sit on a coarse grid so
  // id tie-breaks are exercised constantly.
  using Index = util::OrderIndex<double, std::less<double>>;
  for (const std::uint32_t seed : {5u, 6u, 7u}) {
    Index idx;
    std::set<std::pair<double, std::uint32_t>> ref;
    std::map<std::uint32_t, double> key_of;
    std::mt19937 rng(seed);
    int to_calendar = 0;
    int to_heap = 0;
    bool was_calendar = idx.on_calendar();
    EXPECT_FALSE(was_calendar);
    bool grow = true;
    for (int step = 0; step < 40000; ++step) {
      if (ref.size() >= Index::kCalendarAt + 20) grow = false;
      if (ref.size() <= Index::kHeapAt - 4) grow = true;
      const auto op = rng() % 10;
      const std::uint32_t id = rng() % 256;
      if (op < (grow ? 6u : 2u)) {  // insert or re-key
        const double k = static_cast<double>(rng() % 400) * 0.125;
        const auto it = key_of.find(id);
        if (it != key_of.end()) ref.erase({it->second, id});
        key_of[id] = k;
        ref.insert({k, id});
        idx.upsert(id, k);
      } else if (op < 8) {  // erase (may miss)
        const auto it = key_of.find(id);
        const bool present = it != key_of.end();
        if (present) {
          ref.erase({it->second, id});
          key_of.erase(it);
        }
        ASSERT_EQ(idx.erase(id), present) << "step " << step;
      } else if (!ref.empty()) {  // pop
        const auto want = *ref.begin();
        ref.erase(ref.begin());
        key_of.erase(want.second);
        const auto got = idx.pop();
        ASSERT_EQ(got.id, want.second) << "step " << step;
        ASSERT_EQ(got.key, want.first) << "step " << step;
      }
      ASSERT_EQ(idx.size(), ref.size()) << "step " << step;
      ASSERT_EQ(idx.contains(id), key_of.count(id) == 1) << "step " << step;
      if (!ref.empty()) {
        ASSERT_EQ(idx.top_key(), ref.begin()->first);
      }
      if (idx.on_calendar() != was_calendar) {
        was_calendar = idx.on_calendar();
        (was_calendar ? to_calendar : to_heap) += 1;
        // The switch happens exactly at the thresholds.
        if (was_calendar) {
          EXPECT_GE(idx.size(), Index::kCalendarAt);
        } else {
          EXPECT_LE(idx.size(), Index::kHeapAt);
        }
      }
    }
    // Both migrations really happened, many times over.
    EXPECT_GE(to_calendar, 5) << "seed " << seed;
    EXPECT_GE(to_heap, 5) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ispn
