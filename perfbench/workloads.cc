#include "workloads.h"

#include <stdexcept>

namespace perfbench {

namespace {

using ispn::scenario::CcKind;
using ispn::scenario::FabricKind;
using ispn::scenario::ScenarioSpec;
using ispn::scenario::SourceKind;

constexpr double kLinkRate = 1e8;  ///< 100k pkt/s of 1000-bit packets

/// Fan-in tree, depth 3 x width 4: 16 leaf switches feed 4 mid switches
/// feed the root, so every packet crosses two QoS hops.  1024 flows open
/// at t=0 with the paper's service mix and never depart; on/off sources
/// offer 90% of the four mid->root links.
ScenarioSpec fanin_qos(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.fabric = FabricKind::kFanInTree;
  spec.tree_depth = 3;
  spec.tree_width = 4;
  spec.link_rate = kLinkRate;
  spec.arrival_rate = 0;  // one deterministic batch at t=0
  spec.target_flows = 1024;
  spec.mean_hold = 0;  // flows never depart
  spec.p_guaranteed = 0.2;
  spec.p_predicted = 0.5;
  spec.source = SourceKind::kOnOff;
  spec.avg_rate_pps = 0.9 * 4 * kLinkRate / spec.packet_bits / 1024;
  spec.run_seconds = 4.0;
  spec.seed = seed;
  return spec;
}

/// Parking lot, 4 hops, under flow churn (Poisson arrivals at 200/s, 1 s
/// mean hold, at most 256 open).  Datagram flows run reno/bbr/rack by
/// flow id with DEC-TR-506 binary feedback; every fault family fires;
/// degraded flows retry admission with backoff; the invariant monitor
/// audits at 4 Hz.
ScenarioSpec churn_cc_faults(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.fabric = FabricKind::kParkingLot;
  spec.parking_hops = 4;
  spec.link_rate = kLinkRate;
  spec.arrival_rate = 200.0;
  spec.mean_hold = 1.0;
  spec.target_flows = 256;
  spec.p_guaranteed = 0.2;
  spec.p_predicted = 0.3;
  spec.source = SourceKind::kOnOff;
  spec.avg_rate_pps = 1000.0;
  spec.cc = CcKind::kMix;
  spec.binary_feedback = true;
  spec.measurement_estimator =
      ispn::core::LinkMeasurement::Estimator::kEwma;
  spec.link_failure_rate = 0.1;
  spec.link_repair_mean = 0.5;
  spec.flap_prob = 0.25;
  spec.node_crash_rate = 0.1;
  spec.node_repair_mean = 0.25;
  spec.brownout_rate = 0.1;
  spec.brownout_fraction = 0.2;  // deep enough to shed and degrade flows
  spec.brownout_mean = 1.0;
  spec.loss_rate = 0.2;
  spec.loss_prob = 0.01;
  spec.loss_mean = 0.5;
  spec.readmit_backoff = 0.25;
  spec.invariant_cadence = 0.25;
  spec.run_seconds = 8.0;
  spec.drain_grace = 0.25;
  spec.seed = seed;
  return spec;
}

/// Fan-in tree, depth 2 x width 4, carrying 2^18 datagram CBR flows on
/// hierarchical (aggregate) schedulers at a fixed 360k pkt/s in total.
ScenarioSpec flowscale_256k(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.fabric = FabricKind::kFanInTree;
  spec.tree_depth = 2;
  spec.tree_width = 4;
  spec.link_rate = kLinkRate;
  spec.arrival_rate = 0;
  spec.target_flows = 1 << 18;
  spec.mean_hold = 0;
  spec.p_guaranteed = 0;
  spec.p_predicted = 0;
  spec.source = SourceKind::kCbr;
  spec.avg_rate_pps = 360000.0 / (1 << 18);
  spec.hierarchical = true;
  spec.run_seconds = 3.0;
  spec.seed = seed;
  return spec;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fanin-qos") {
    return {name, fanin_qos(seed), 0.5, true};
  }
  if (name == "fanin-qos-sharded") {
    ScenarioSpec spec = fanin_qos(seed);
    spec.shards = 4;
    return {name, spec, 0.5, true};
  }
  if (name == "churn-cc-faults") {
    return {name, churn_cc_faults(seed), 1.0, false};
  }
  if (name == "flowscale-256k") {
    // Batch starts stagger over one mean inter-packet gap (~0.73 s), so
    // the window opens once every source is emitting.
    return {name, flowscale_256k(seed), 1.0, false};
  }
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (fanin-qos, fanin-qos-sharded, churn-cc-faults, flowscale-256k)");
}

}  // namespace perfbench
