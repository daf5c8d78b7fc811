// The benchmark's four workloads, as ScenarioSpecs built from a seed.
//
// Every workload is open loop: sources emit on their own schedule
// whatever the fabric does with their packets, and flows arrive either in
// one batch at t=0 or as a Poisson process.  Each spec differs from the
// others in the layer it loads:
//
//   fanin-qos          per-packet mechanism (unified scheduler: WFQ +
//                      FIFO+ + datagram over two QoS hops), classic engine
//   fanin-qos-sharded  the same spec on the sharded engine (4 workers)
//   churn-cc-faults    control plane and transport: flow churn, responsive
//                      reno/bbr/rack traffic with binary feedback, all four
//                      fault families, the invariant monitor
//   flowscale-256k     2^18 hierarchical datagram flows: per-flow state far
//                      beyond the last-level cache, so set-up, memory and
//                      the delivery-prefetch / direct-map-cache paths
//                      dominate

#pragma once

#include <cstdint>
#include <string>

#include "scenario/scenario.h"

namespace perfbench {

struct Workload {
  std::string name;
  ispn::scenario::ScenarioSpec spec;
  /// Simulated seconds run before the measured window opens (queues,
  /// pools, measurement windows and staggered source starts settle).
  double warmup_s = 0;
  /// Admitted guaranteed flows must meet their Parekh–Gallager bound.
  /// Only checked where no fault can reroute a flow onto a longer path.
  bool check_bounds = false;
};

/// Builds the named workload for `seed`.  Throws std::invalid_argument on
/// an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

}  // namespace perfbench
