// Shared POD ordering keys for the scheduler family.
//
// Every discipline in this layer orders packets by a (double key, arrival
// order) pair, and the slab-parked ones additionally carry the packet's
// PacketSlab slot.  These structs were historically re-declared per
// scheduler (fifo_plus, virtual_clock, wfq, unified); they live here once
// so the heap-entry layout and tie-break semantics cannot drift apart.

#pragma once

#include <cstdint>

#include "net/packet.h"
#include "util/calendar_queue.h"

namespace ispn::sched {

/// Key of a flow's head packet in the packetized WFQ selection: smallest
/// (finish tag, arrival order) transmits next.
struct HeadKey {
  double finish = 0;
  std::uint64_t order = 0;
};

struct HeadLess {
  bool operator()(const HeadKey& a, const HeadKey& b) const {
    if (a.finish != b.finish) return a.finish < b.finish;
    return a.order < b.order;
  }
};

/// Virtual-time projection of a HeadKey, for calendar-queue bucketing.
/// HeadLess orders primarily by this projection (ties by arrival order),
/// which is exactly the consistency the calendar requires.
struct HeadProject {
  double operator()(const HeadKey& k) const { return k.finish; }
};

/// The selectable head-of-flow ordering used by WFQ and unified.
using HeadOrder = util::OrderIndex<HeadKey, HeadLess, HeadProject>;

/// Heap entry for a packet parked in a PacketSlab: 24 trivially-copyable
/// bytes ordered by (key, order), so sifts move raw words instead of
/// unique_ptrs.  `key` is whatever the discipline orders by — expected
/// arrival (FIFO+, unified's predicted classes), stamp (VirtualClock).
struct SlabEntry {
  double key = 0;
  std::uint64_t order = 0;      // arrival tie-break
  std::uint32_t slot = 0;       // packet's PacketSlab slot
};

struct SlabEntryLess {
  bool operator()(const SlabEntry& a, const SlabEntry& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.order < b.order;
  }
};

}  // namespace ispn::sched
