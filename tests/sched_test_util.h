// Shared helpers for scheduler unit tests.

#pragma once

#include <utility>
#include <vector>

#include "net/packet.h"
#include "sched/scheduler.h"

namespace ispn::sched_test {

/// Offers one packet the way a port would and returns the victims this
/// single arrival dropped (empty = accepted without eviction).  Installs a
/// transient DropSink for the duration of the call and leaves the
/// scheduler sinkless afterwards — so use it ONLY on standalone schedulers
/// the test constructed itself, never on one owned by a Port (it would
/// unseat the port's accounting sink).  Tests that assert on cumulative
/// drop accounting should install their own sink instead.
inline std::vector<net::PacketPtr> offer(sched::Scheduler& q,
                                         net::PacketPtr p, sim::Time now) {
  std::vector<net::PacketPtr> dropped;
  q.set_drop_sink([&dropped](net::PacketPtr victim, sim::Time) {
    dropped.push_back(std::move(victim));
  });
  q.enqueue(std::move(p), now);
  q.set_drop_sink({});
  return dropped;
}

/// Makes a packet as a port would present it to a scheduler: enqueued_at
/// stamped with the arrival time.
inline net::PacketPtr pkt(net::FlowId flow, std::uint64_t seq,
                          sim::Time arrival,
                          sim::Bits bits = sim::paper::kPacketBits) {
  auto p = net::make_packet(flow, seq, 0, 1, arrival, bits);
  p->enqueued_at = arrival;
  return p;
}

inline net::PacketPtr predicted_pkt(net::FlowId flow, std::uint64_t seq,
                                    sim::Time arrival, std::uint8_t priority,
                                    double jitter_offset = 0) {
  auto p = pkt(flow, seq, arrival);
  p->service = net::ServiceClass::kPredicted;
  p->priority = priority;
  p->jitter_offset = jitter_offset;
  return p;
}

inline net::PacketPtr guaranteed_pkt(net::FlowId flow, std::uint64_t seq,
                                     sim::Time arrival) {
  auto p = pkt(flow, seq, arrival);
  p->service = net::ServiceClass::kGuaranteed;
  return p;
}

inline net::PacketPtr datagram_pkt(net::FlowId flow, std::uint64_t seq,
                                   sim::Time arrival) {
  auto p = pkt(flow, seq, arrival);
  p->service = net::ServiceClass::kDatagram;
  return p;
}

}  // namespace ispn::sched_test
