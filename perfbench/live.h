// One live run of a workload through scenario::ScenarioRunner, timed in
// host time, plus the checks that decide whether its output is correct.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/tracer.h"
#include "scenario/report.h"
#include "sim/shard.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct LiveOptions {
  /// Simulated seconds per advance() call.
  double slice_s = 0.05;
  /// Runner-level spans (construction, prepare, each slice, finish).
  SpanLog* spans = nullptr;
  /// Records every delivery (exact delay tails).  Set before prepare().
  ispn::net::PacketTracer* tracer = nullptr;
  /// Window-advance policy installed on the sharded engine.
  const ispn::sim::ShardSync* sync = nullptr;
  /// Called after every slice and once after finish().
  std::function<void()> after_slice;
};

struct LiveRun {
  double setup_s = 0;   ///< construction + prepare()
  double wall_s = 0;    ///< construction to finish() returning
  double finish_s = 0;  ///< finish() alone (stop + drain + report)
  double window_s = 0;  ///< host seconds of the measured window
  std::uint64_t window_pkts = 0;    ///< deliveries in the window
  std::uint64_t window_events = 0;  ///< events in the window
  std::uint64_t window_allocs = 0;  ///< heap allocations in the window
  std::uint64_t rounds = 0;  ///< sharded windows executed, whole run
  std::uint64_t batch_flows = 0;    ///< flows opened inside prepare()
  /// Resident memory grown from before construction to the window's end.
  double rss_growth_kb = 0;
  /// Host ms of each slice, and whether decisions() gained a reroute or
  /// degrade entry during it.
  std::vector<double> slice_ms;
  std::vector<bool> slice_rerouted;
  ispn::scenario::ScenarioReport report;
  std::uint64_t digest = 0;
  std::string failure;  ///< first failed output check; empty when correct

  [[nodiscard]] double pkts_per_s() const {
    return window_s > 0 ? static_cast<double>(window_pkts) / window_s : 0;
  }
};

/// Runs `w` once: construct, prepare, advance slice by slice through the
/// warm-up and the measured window, finish, then check the output.
[[nodiscard]] LiveRun run_live(const Workload& w, const LiveOptions& opt);

/// Constructs and prepares the workload, then tears it down; returns the
/// host seconds of construction + prepare().
[[nodiscard]] double run_setup_only(const Workload& w);

/// Behaviour digest: decision hash, conservation ledger, events and
/// per-class delivered counts.
[[nodiscard]] std::uint64_t digest(const ispn::scenario::ScenarioReport& r);

/// Resident set size now / at its peak, in kB (Linux).
[[nodiscard]] double rss_kb();
[[nodiscard]] double peak_rss_kb();

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

}  // namespace perfbench
