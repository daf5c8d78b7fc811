// An indexed calendar queue: bucketed ordering over virtual time, with the
// same one-entry-per-id / re-key-in-place contract as IndexedDaryHeap.
//
// The WFQ-family hot path re-keys two orderings on every packet (the fluid
// departure epochs and the head-of-flow finish tags).  A comparison heap
// pays O(log n) full-depth sifts for each re-key, which is what pins the
// saturated 100-flow rows.  Keys here are not arbitrary, though: they are
// *virtual times*, drifting forward with V(t).  A calendar queue (Brown
// 1988; the same idea as the kernel timing wheel) exploits that: the key
// axis is cut into power-of-two-width buckets ("days"), entries are filed
// by day in O(1) amortized, and the minimum is found by walking forward
// from the last-known-min day instead of sifting.
//
// Determinism contract (the reason this structure can stand in for the
// heap at all): pop()/top() yield entries in exactly the total order
//
//     KeyLess, ties broken by ascending id
//
// — bit-identical to IndexedDaryHeap.  Bucketing never reorders: the day
// function is monotone in the projected key, KeyLess orders primarily by
// that same projection, and each bucket is kept sorted under the full
// comparator, so equal-key ties resolve exactly as the heap resolves
// them.  tests/test_order_backend_diff.cc checks the structure against
// the heap and OrderIndex against a sorted reference.
//
// Layout.  A power-of-two number of buckets (growing 16x each time
// occupancy crosses a 10^5-seeded threshold, up to 2^16) covers one
// "year" of days; entries whose day falls beyond the current year wait in an
// overflow list and are re-bucketed lazily when the minimum search crosses
// a year boundary (which only happens once V(t) has advanced past every
// nearer key).  Each bucket is a sorted run consumed from a head index:
// the bucket minimum is one array read, popping it is an index increment,
// and an insert is a binary search plus a short tail move.  Sorted runs
// matter because WFQ workloads are *degenerate*: equal weights and fixed
// packet sizes quantize finish tags onto a grid, so dozens of flows share
// bit-identical keys — a structure that re-scans such a cluster on every
// pop is no faster than the heap it replaces.
//
// The bucket width self-tunes: every 1024 minimum-searches the average
// empty-bucket scan length, bucket occupancy, and within-bucket key span
// are inspected; the width doubles when scans run long (too sparse) and
// halves when buckets are crowded — but only if the observed span says
// splitting would actually separate the entries (a cluster of identical
// keys can never be split, and narrowing on it would run away to the
// minimum width).  Retunes rebuild in O(n log n), deterministically: the
// decision depends only on the operation sequence.
//
// OrderIndex at the bottom of this header is what the schedulers use: the
// heap while the population is small, this calendar once it is not.

#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/indexed_heap.h"

namespace ispn::util {

/// Projects a key onto the virtual-time axis used for bucketing.  KeyLess
/// must order primarily by this projection (ties may order arbitrarily
/// within it) or the bucket partition would disagree with the comparator.
struct ScalarProject {
  double operator()(double key) const { return key; }
};

template <typename Key, typename KeyLess, typename Project = ScalarProject>
class IndexedCalendarQueue {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Entry {
    Key key;
    std::uint32_t id;
  };

  /// `width_hint` seeds the bucket width (rounded down to a power of two);
  /// the self-tuner converges from any starting point, a hint near the
  /// typical gap between adjacent keys just shortens the transient.
  explicit IndexedCalendarQueue(double width_hint = 1.0 / 16.0,
                                int bucket_bits = 8)
      : bucket_bits_(bucket_bits) {
    assert(bucket_bits_ >= 2 && bucket_bits_ <= 16);
    // The bucket array (2^bucket_bits vectors) is allocated on first
    // file(): an OrderIndex that stays small carries this class unused,
    // and solo-only populations never bucket anything either.
    set_width_exp(exp_of(width_hint));
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] bool contains(std::uint32_t id) const {
    return id < pos_.size() && pos_[id] != kNone;
  }

  /// Smallest entry under (KeyLess, id).  Precondition: !empty().  Not
  /// const: the cached minimum may need recomputing (bucket scan).
  [[nodiscard]] const Entry& top() {
    assert(size_ > 0);
    if (!min_valid_) find_min();
    return min_;
  }

  /// Inserts `id` with `key`, or re-keys it in place if present.
  void upsert(std::uint32_t id, Key key) {
    if (id >= pos_.size()) {
      pos_.resize(id + 1, kNone);
      keys_.resize(id + 1);
    }
    if (pos_[id] == kSolo) {
      // Lone entry re-keyed (single-flow hot path): nothing to re-file.
      min_.key = key;
      return;
    }
    if (pos_[id] != kNone) remove(id);
    insert_entry(Entry{key, id});
  }

  /// Removes and returns the smallest entry.  Precondition: !empty().
  Entry pop() {
    const Entry out = top();
    remove(out.id);  // invalidates the min cache
    return out;
  }

  /// Removes `id` if present; returns true when it was.
  bool erase(std::uint32_t id) {
    if (!contains(id)) return false;
    remove(id);
    return true;
  }

  void reserve(std::size_t ids) {
    pos_.reserve(ids);
    keys_.reserve(ids);
  }

  /// Current bucket width (diagnostic / tests).
  [[nodiscard]] double bucket_width() const {
    return std::ldexp(1.0, width_exp_);
  }

  /// Current day count exponent (grows under load; diagnostic / tests).
  [[nodiscard]] int bucket_bits() const { return bucket_bits_; }

  /// Lifetime counters (diagnostic / tests): the unit tests assert the
  /// self-tuner converges (rebuilds stop) and scans stay short.
  struct Stats {
    std::uint64_t finds = 0;          ///< min-recomputations
    std::uint64_t scanned_slots = 0;  ///< bucket slots probed across finds
    std::uint64_t rebuilds = 0;       ///< width retunes / window rebases
    std::uint64_t year_advances = 0;  ///< lazy overflow re-bucketings
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// pos_ encoding: kNone = absent; kSolo = parked as the lone entry in
  /// the min cache (never bucketed); values with kOverflowFlag set are
  /// overflow-list indexes; anything else is a bucket slot (≤ 2^16).
  static constexpr std::uint32_t kSolo = 0xfffffffeu;
  static constexpr std::uint32_t kOverflowFlag = 0x80000000u;
  static constexpr int kMinExp = -40;
  static constexpr int kMaxExp = 40;
  static constexpr std::uint32_t kRetuneSamples = 1024;
  static constexpr double kNarrowOccupancy = 3.0;
  static constexpr double kWidenScan = 8.0;
  static constexpr int kGrowBitsStep = 4;
  static constexpr int kMaxBucketBits = 16;
  static constexpr std::size_t kGrowOccupancy = 100000;

  /// One day's entries: v_[head_..) is a live run sorted under (KeyLess,
  /// id); [0, head_) is the already-popped prefix, reclaimed when the run
  /// empties or the dead prefix outgrows the live part.
  struct Bucket {
    std::vector<Entry> v;
    std::uint32_t head = 0;
    [[nodiscard]] bool live() const { return head < v.size(); }
    [[nodiscard]] std::size_t live_size() const { return v.size() - head; }
    void clear() {
      v.clear();
      head = 0;
    }
  };

  [[nodiscard]] std::int64_t num_days() const {
    return std::int64_t{1} << bucket_bits_;
  }
  [[nodiscard]] std::size_t slot_of_day(std::int64_t day) const {
    return static_cast<std::size_t>(day & (num_days() - 1));
  }

  static int exp_of(double width_hint) {
    assert(width_hint > 0);
    const int e = static_cast<int>(std::floor(std::log2(width_hint)));
    return e < kMinExp ? kMinExp : (e > kMaxExp ? kMaxExp : e);
  }

  void set_width_exp(int e) {
    width_exp_ = e;
    inv_width_ = std::ldexp(1.0, -e);
  }

  /// Monotone key -> day mapping, clamped so the int64 cast is defined for
  /// sentinel-sized keys (e.g. kTimeInfinity).
  [[nodiscard]] std::int64_t day_of(const Key& key) const {
    const double d = std::floor(project_(key) * inv_width_);
    constexpr double kLimit = 4.0e18;  // < 2^63
    if (d >= kLimit) return static_cast<std::int64_t>(kLimit);
    if (d <= -kLimit) return -static_cast<std::int64_t>(kLimit);
    return static_cast<std::int64_t>(d);
  }

  bool less(const Entry& a, const Entry& b) const {
    if (key_less_(a.key, b.key)) return true;
    if (key_less_(b.key, a.key)) return false;
    return a.id < b.id;
  }

  /// Sorted-insert into a bucket's live run.  (The bucketed machinery is
  /// kept out of line so the solo/cached fast paths — all a single-flow
  /// workload ever touches — inline small into scheduler hot loops.)
  [[gnu::noinline]] void bucket_insert(Bucket& b, const Entry& e) {
    if (!b.live()) {
      b.clear();
      b.v.push_back(e);
      return;
    }
    if (b.head > 64 && b.head > b.live_size()) {
      // Reclaim the dead prefix before it dominates the vector.
      b.v.erase(b.v.begin(), b.v.begin() + b.head);
      b.head = 0;
    }
    if (!less(e, b.v.back())) {
      // Fresh arrivals carry monotone (finish, order) tags, so they sort
      // to the end of their day's run almost always: O(1), no tail move.
      b.v.push_back(e);
      return;
    }
    const auto first = b.v.begin() + b.head;
    const auto at = std::lower_bound(
        first, b.v.end(), e,
        [this](const Entry& x, const Entry& y) { return less(x, y); });
    if (at == first && b.head > 0) {
      b.v[--b.head] = e;  // new bucket minimum: reuse a dead slot
    } else {
      b.v.insert(at, e);
    }
  }

  void insert_entry(const Entry& e) {
    if (size_ == 0) {
      // Lone entry: park it in the min cache, skipping the bucket math
      // entirely.  Single-flow workloads (one fluid epoch, one head) churn
      // through this path on every packet.
      pos_[e.id] = kSolo;
      size_ = 1;
      min_ = e;
      min_valid_ = true;
      return;
    }
    if (size_ == 1 && pos_[min_.id] == kSolo) {
      // A second entry arrives: materialise the parked one first.
      file(min_);
    }
    file(e);
    ++size_;
    if (min_valid_ && less(e, min_)) min_ = e;  // min cache survives inserts
    if (size_ >= grow_at_ && bucket_bits_ < kMaxBucketBits) grow_buckets();
  }

  /// Load-adaptive year length: the 2^8-day year that keeps scans short at
  /// hundreds of entries crams ~400 entries per day at 10^5, turning every
  /// bucket operation into a long run walk.  Each time occupancy crosses
  /// grow_at_ the day count grows 16x (up to 2^16), re-filing everything
  /// once — O(n log n), amortized away by the 16x-spaced thresholds.
  /// Grow-only: occupancy receding leaves spare (empty, cheap) buckets.
  [[gnu::noinline]] void grow_buckets() {
    bucket_bits_ =
        std::min(bucket_bits_ + kGrowBitsStep, static_cast<int>(kMaxBucketBits));
    grow_at_ *= std::size_t{1} << kGrowBitsStep;
    buckets_.resize(std::size_t{1} << bucket_bits_);
    rebuild(width_exp_, INT64_MAX);
  }

  /// Files one entry into its bucket or the overflow list.  Shared by
  /// insert_entry and solo-materialisation; does not touch size_ or the
  /// min cache.
  [[gnu::noinline]] void file(const Entry& e) {
    if (buckets_.empty()) {
      buckets_.resize(std::size_t{1} << bucket_bits_);
    }
    keys_[e.id] = e.key;  // remove_filed()'s binary-search target
    std::int64_t day = day_of(e.key);
    if (day < year_base_day_) {
      // Key behind the current year.  Virtual-time keys never regress, but
      // stay correct for callers that do: rebase the window onto this day.
      rebuild(width_exp_, day);
      day = day_of(e.key);
    }
    if (day >= year_base_day_ + num_days()) {
      pos_[e.id] =
          kOverflowFlag | static_cast<std::uint32_t>(overflow_.size());
      overflow_.push_back(e);
    } else {
      const std::size_t slot = slot_of_day(day);
      bucket_insert(buckets_[slot], e);
      pos_[e.id] = static_cast<std::uint32_t>(slot);
      if (day < scan_day_) scan_day_ = day;
    }
  }

  void remove(std::uint32_t id) {
    const std::uint32_t where = pos_[id];
    assert(where != kNone);
    if (where == kSolo) {
      pos_[id] = kNone;
      size_ = 0;
      min_valid_ = false;
      return;
    }
    remove_filed(id, where);
  }

  [[gnu::noinline]] void remove_filed(std::uint32_t id, std::uint32_t where) {
    if (where & kOverflowFlag) {
      // Overflow order is irrelevant: O(1) swap-remove by tracked index.
      const std::uint32_t at = where & ~kOverflowFlag;
      assert(at < overflow_.size() && overflow_[at].id == id);
      if (at + 1 != overflow_.size()) {
        overflow_[at] = overflow_.back();
        pos_[overflow_[at].id] = kOverflowFlag | at;
      }
      overflow_.pop_back();
    } else {
      Bucket& b = buckets_[where];
      const Entry target{keys_[id], id};
      const auto first = b.v.begin() + b.head;
      // Removing the run's front (every pop does) needs no search: the
      // target can never sort before the front, so equality means "is it".
      const auto at = !less(*first, target)
                          ? first
                          : std::lower_bound(
                                first + 1, b.v.end(), target,
                                [this](const Entry& x, const Entry& y) {
                                  return less(x, y);
                                });
      assert(at != b.v.end() && at->id == id);
      if (at == first) {
        ++b.head;
      } else {
        b.v.erase(at);
      }
      if (min_valid_ && min_.id == id) {
        // The minimum's bucket holds its whole day as a sorted run and
        // every other entry belongs to a later day, so the run's next
        // entry (if any) is the next global minimum — no scan needed.
        min_valid_ = b.live();
        if (min_valid_) min_ = b.v[b.head];
      }
      if (!b.live()) b.clear();
      pos_[id] = kNone;
      --size_;
      return;
    }
    pos_[id] = kNone;
    --size_;
    if (min_valid_ && min_.id == id) min_valid_ = false;
  }

  /// Recomputes the cached minimum: walk days forward from scan_day_; when
  /// the year is exhausted, advance it by lazily re-bucketing the overflow
  /// list.  Amortized O(1) while the width matches the key distribution —
  /// which the sampling retuner enforces.
  [[gnu::noinline]] void find_min() {
    assert(size_ > 0);
    maybe_retune();
    ++stats_.finds;
    for (;;) {
      const std::int64_t year_end = year_base_day_ + num_days();
      for (std::int64_t d = scan_day_; d < year_end; ++d) {
        ++scanned_slots_;
        ++stats_.scanned_slots;
        const Bucket& b = buckets_[slot_of_day(d)];
        if (!b.live()) continue;
        occupancy_ += b.live_size();
        span_ += project_(b.v.back().key) - project_(b.v[b.head].key);
        ++samples_;
        scan_day_ = d;
        min_ = b.v[b.head];
        min_valid_ = true;
        return;
      }
      advance_year();
    }
  }

  /// All buckets are empty: jump the year to the earliest overflow day and
  /// pull that year's entries out of the overflow list.
  void advance_year() {
    assert(!overflow_.empty());
    ++stats_.year_advances;
    std::int64_t min_day = day_of(overflow_.front().key);
    for (std::size_t i = 1; i < overflow_.size(); ++i) {
      const std::int64_t d = day_of(overflow_[i].key);
      if (d < min_day) min_day = d;
    }
    year_base_day_ = (min_day >> bucket_bits_) << bucket_bits_;
    scan_day_ = min_day;
    // Partition this year's entries out of the overflow list, then file
    // them in ascending order so each (empty) bucket receives a sorted run.
    year_moved_ += overflow_.size();  // churn signal for the width tuner
    scratch_.clear();
    std::size_t w = 0;
    for (std::size_t r = 0; r < overflow_.size(); ++r) {
      if (day_of(overflow_[r].key) < year_base_day_ + num_days()) {
        scratch_.push_back(overflow_[r]);
      } else {
        overflow_[w] = overflow_[r];
        pos_[overflow_[w].id] = kOverflowFlag | static_cast<std::uint32_t>(w);
        ++w;
      }
    }
    overflow_.resize(w);
    std::sort(scratch_.begin(), scratch_.end(),
              [this](const Entry& x, const Entry& y) { return less(x, y); });
    for (const Entry& e : scratch_) {
      const std::size_t slot = slot_of_day(day_of(e.key));
      assert(buckets_[slot].head == 0);  // buckets were all empty
      buckets_[slot].v.push_back(e);
      pos_[e.id] = static_cast<std::uint32_t>(slot);
    }
  }

  void maybe_retune() {
    if (samples_ < kRetuneSamples) return;
    const double avg_occupancy = static_cast<double>(occupancy_) / samples_;
    const double avg_scan = static_cast<double>(scanned_slots_) / samples_;
    const double avg_span = span_ / samples_;
    // Entries re-bucketed out of the overflow list per find: a year that
    // is too short (width too small for how fast V(t) moves) shows up as
    // this churn, not as long scans.
    const double year_churn = static_cast<double>(year_moved_) / samples_;
    samples_ = 0;
    occupancy_ = 0;
    scanned_slots_ = 0;
    span_ = 0;
    year_moved_ = 0;
    if (avg_occupancy > kNarrowOccupancy && width_exp_ > kMinExp &&
        avg_span * 4.0 > bucket_width()) {
      // Crowded buckets whose keys actually spread across the day: halving
      // the width will separate them.  (When the crowd is a cluster of
      // identical keys — degenerate WFQ tags — span is ~0 and narrowing
      // could never split it, so we keep the width and rely on the sorted
      // runs instead.)
      rebuild(width_exp_ - 1, INT64_MAX);
    } else if ((avg_scan > kWidenScan || year_churn > 0.5) &&
               width_exp_ < kMaxExp) {
      rebuild(width_exp_ + 1, INT64_MAX);
    }
  }

  /// Re-buckets everything under a new width.  `anchor_day` (in the NEW
  /// width's day units) additionally lower-bounds the window base; pass
  /// INT64_MAX when only the stored entries matter.
  [[gnu::noinline]] void rebuild(int new_exp, std::int64_t anchor_day) {
    ++stats_.rebuilds;
    scratch_.clear();
    scratch_.reserve(size_);
    for (Bucket& b : buckets_) {
      scratch_.insert(scratch_.end(), b.v.begin() + b.head, b.v.end());
      b.clear();
    }
    scratch_.insert(scratch_.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();
    set_width_exp(new_exp);
    std::sort(scratch_.begin(), scratch_.end(),
              [this](const Entry& x, const Entry& y) { return less(x, y); });
    std::int64_t min_day = anchor_day;
    if (!scratch_.empty()) {
      min_day = std::min(min_day, day_of(scratch_.front().key));
    }
    if (min_day == INT64_MAX) min_day = 0;  // empty structure
    year_base_day_ = (min_day >> bucket_bits_) << bucket_bits_;
    scan_day_ = min_day;
    for (const Entry& e : scratch_) {
      const std::int64_t day = day_of(e.key);
      if (day >= year_base_day_ + num_days()) {
        pos_[e.id] =
            kOverflowFlag | static_cast<std::uint32_t>(overflow_.size());
        overflow_.push_back(e);
      } else {
        const std::size_t slot = slot_of_day(day);
        buckets_[slot].v.push_back(e);  // ascending feed: stays sorted
        pos_[e.id] = static_cast<std::uint32_t>(slot);
      }
    }
    min_valid_ = false;
  }

  int bucket_bits_;
  std::size_t grow_at_ = kGrowOccupancy;  // 16x after each growth
  std::vector<Bucket> buckets_;
  std::vector<Entry> overflow_;  ///< entries beyond the current year
  std::vector<Entry> scratch_;   ///< rebuild/advance staging, kept warm
  std::vector<std::uint32_t> pos_;  ///< per id: bucket slot / overflow / none
  std::vector<Key> keys_;           ///< per id: its current key
  int width_exp_ = -4;              ///< bucket width = 2^width_exp_
  double inv_width_ = 16.0;
  std::int64_t year_base_day_ = 0;  ///< first day covered by the buckets
  std::int64_t scan_day_ = 0;       ///< no bucketed entry has an earlier day
  std::size_t size_ = 0;
  Entry min_{};
  bool min_valid_ = false;
  std::uint32_t samples_ = 0;
  std::uint64_t scanned_slots_ = 0;
  std::uint64_t occupancy_ = 0;
  std::uint64_t year_moved_ = 0;
  double span_ = 0;
  Stats stats_;
  KeyLess key_less_;
  Project project_;
};

/// Indexed ordering for the schedulers' virtual-time tags: the heap while
/// the population is small, the calendar once it is not.
///
/// The structures win in disjoint regimes.  At a handful of entries the
/// heap's two-or-three-element sifts are unbeatable, while past a few
/// dozen flows its full-depth re-keys lose to the calendar's O(1)
/// bucketing by roughly 2x.  The index runs the heap until the population
/// reaches kCalendarAt, migrates (a pop/upsert drain — O(n log n), rare),
/// and goes back to the heap at kHeapAt or fewer; the wide hysteresis
/// band keeps a jittering population from thrashing.  Migration cannot
/// perturb departure order: both structures hold exactly the same
/// (key, id) set and yield the same total order.
template <typename Key, typename KeyLess, typename Project = ScalarProject>
class OrderIndex {
 public:
  using Heap = IndexedDaryHeap<Key, KeyLess>;
  using Calendar = IndexedCalendarQueue<Key, KeyLess, Project>;
  using Entry = typename Heap::Entry;  // layout-identical to Calendar's

  static constexpr std::size_t kCalendarAt = 48;  ///< heap -> calendar at ≥
  static constexpr std::size_t kHeapAt = 12;      ///< calendar -> heap at ≤

  explicit OrderIndex(double width_hint = 1.0 / 16.0)
      : calendar_(width_hint) {}

  /// True while ops are routed to the calendar (diagnostic).
  [[nodiscard]] bool on_calendar() const { return on_calendar_; }

  /// The calendar member (diagnostic: width/scan stats; empty while small).
  [[nodiscard]] const Calendar& calendar() const { return calendar_; }

  [[nodiscard]] bool empty() const {
    return on_calendar_ ? calendar_.empty() : heap_.empty();
  }
  [[nodiscard]] std::size_t size() const {
    return on_calendar_ ? calendar_.size() : heap_.size();
  }
  [[nodiscard]] bool contains(std::uint32_t id) const {
    return on_calendar_ ? calendar_.contains(id) : heap_.contains(id);
  }

  /// Key of the smallest entry.  Precondition: !empty().
  [[nodiscard]] const Key& top_key() {
    return on_calendar_ ? calendar_.top().key : heap_.top().key;
  }

  Entry pop() {
    if (!on_calendar_) return heap_.pop();
    const typename Calendar::Entry e = calendar_.pop();
    if (calendar_.size() <= kHeapAt) {
      migrate_to_heap();
    }
    return Entry{e.key, e.id};
  }

  void upsert(std::uint32_t id, Key key) {
    if (on_calendar_) {
      calendar_.upsert(id, std::move(key));
    } else {
      heap_.upsert(id, std::move(key));
      if (heap_.size() >= kCalendarAt) {
        migrate_to_calendar();
      }
    }
  }

  bool erase(std::uint32_t id) {
    if (!on_calendar_) return heap_.erase(id);
    const bool hit = calendar_.erase(id);
    if (calendar_.size() <= kHeapAt) {
      migrate_to_heap();
    }
    return hit;
  }

  void reserve(std::size_t ids) {
    heap_.reserve(ids);
    calendar_.reserve(ids);
  }

 private:
  [[gnu::noinline]] void migrate_to_calendar() {
    while (!heap_.empty()) {
      Entry e = heap_.pop();
      calendar_.upsert(e.id, std::move(e.key));
    }
    on_calendar_ = true;
  }

  [[gnu::noinline]] void migrate_to_heap() {
    while (!calendar_.empty()) {
      typename Calendar::Entry e = calendar_.pop();
      heap_.upsert(e.id, std::move(e.key));
    }
    on_calendar_ = false;
  }

  bool on_calendar_ = false;
  Heap heap_;
  Calendar calendar_;
};

}  // namespace ispn::util
