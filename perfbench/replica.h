// A replica of a classic-engine workload's fabric, assembled from the
// simulator's public pieces so that spans can wrap the layers the
// scenario runner keeps private:
//
//   * core::IspnNetwork with net::build_fan_tree / net::build_parking_lot,
//     given a link factory that wraps qos_link_factory()'s
//     UnifiedScheduler in a forwarding, timing sched::Scheduler
//     (IspnNetwork keeps the raw inner pointer, so admission still works);
//   * spanned try_open_flow / close_flow calls;
//   * Host::inject spanned from the sources' emit callbacks;
//   * timing FlowSink proxies around the TCP pair.
//
// The replica draws its flows from the runner's random streams in the
// runner's order, so on a fault-free workload it opens the same flows.
// It has no faults and no invariant monitor: its delivered and event
// counts are reported beside the live run's so the reader can see how far
// it departs from it.

#pragma once

#include <cstdint>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct ReplicaRun {
  std::uint64_t delivered = 0;  ///< data + ACK deliveries, whole run
  std::uint64_t events = 0;     ///< simulator events, whole run
  std::uint64_t offered = 0;    ///< flows offered to admission
  double window_s = 0;          ///< host seconds of the measured window
  std::uint64_t window_pkts = 0;
  std::uint64_t slice_pkts = 0;  ///< deliveries inside spanned slices

  [[nodiscard]] double pkts_per_s() const {
    return window_s > 0 ? static_cast<double>(window_pkts) / window_s : 0;
  }
};

/// Runs the replica of `w` (a classic-engine workload on a fan-in tree or
/// parking lot).  With `spans` null nothing is wrapped: that run is the
/// replica's untraced baseline.
[[nodiscard]] ReplicaRun run_replica(const Workload& w, SpanLog* spans);

}  // namespace perfbench
