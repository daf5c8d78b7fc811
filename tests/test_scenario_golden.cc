// Golden-trace regression suite for the scenario layer.
//
// A WHOLE scenario — fabric generation, live measurement-based admission,
// flow churn, per-hop entry/exit traffic, failures, faults and responsive
// traffic — is pinned two ways through tests/diff_harness.h:
//
//   * across commits: the classic run (shards=0) and the sharded run are
//     each reduced to a digest line (trace, decision log and flow-table
//     hashes, ledger, counters) and checked against
//     tests/golden_digests.txt;
//   * across worker counts: the sharded runs at shards {1, 2, 4} must
//     agree record for record (shards=0 is a distinct model by design: no
//     propagation delay).
//
// A new scenario gets both axes by calling golden() with a new digest key.

#include <gtest/gtest.h>

#include <string>

#include "diff_harness.h"

namespace ispn {
namespace {

/// Runs `spec` at shards {0, 1, 2, 4}, checks the classic and sharded
/// digests, and returns the classic run for the caller's own checks.
diff::Run golden(const scenario::ScenarioSpec& spec, const std::string& name) {
  const std::string key = "scenario." + name;
  diff::Run classic = diff::run_scenario(spec, 0);
  EXPECT_GT(classic.trace.size(), 500u)
      << name << ": workload too small to prove anything";
  diff::expect_digest(key + ".classic", diff::digest(classic));
  const diff::Run sharded = diff::run_scenario(spec, 1);
  diff::expect_digest(key + ".sharded", diff::digest(sharded));
  for (const int shards : {2, 4}) {
    diff::expect_identical(sharded, diff::run_scenario(spec, shards),
                           name + " at shards=" + std::to_string(shards));
  }
  return classic;
}

// --- the golden scenarios -------------------------------------------------

TEST(ScenarioGolden, FanInTree) {
  scenario::ScenarioSpec spec = scenario::preset("fan_in");
  scenario::apply_scale(spec, "small");
  spec.tree_width = 4;
  spec.arrival_rate = 6.0;
  spec.mean_hold = 2.0;
  spec.seed = 11;
  golden(spec, "fan_in_tree");
}

TEST(ScenarioGolden, DeepFanInTree) {
  // 1 + 4 + 16 switches: many more sharded domains than workers.
  scenario::ScenarioSpec spec = scenario::preset("fan_in");
  scenario::apply_scale(spec, "small");
  spec.tree_depth = 3;
  spec.arrival_rate = 6.0;
  spec.mean_hold = 2.0;
  spec.seed = 16;
  golden(spec, "deep_fan_in_tree");
}

TEST(ScenarioGolden, OverloadedParkingLot) {
  scenario::ScenarioSpec spec = scenario::preset("parking_lot");
  scenario::apply_scale(spec, "small");
  // Deliberate overload so the golden trace covers drops and pushout.
  spec.arrival_rate = 0;  // deterministic batch
  spec.target_flows = 24;
  spec.avg_rate_pps = 150.0;
  spec.source = scenario::SourceKind::kPoisson;
  spec.p_guaranteed = 0.15;
  spec.p_predicted = 0.35;
  spec.seed = 12;
  const auto r = golden(spec, "overloaded_parking_lot").report;
  EXPECT_GT(r.net_drops, 0u) << "parking lot never overloaded";
}

TEST(ScenarioGolden, AdmissionChurnChain) {
  scenario::ScenarioSpec spec = scenario::preset("churn");
  scenario::apply_scale(spec, "small");
  spec.seed = 13;
  const auto r = golden(spec, "admission_churn_chain").report;
  EXPECT_GT(r.flows_rejected, 0u) << "churn never exercised rejection";
}

TEST(ScenarioGolden, MeshWithFailures) {
  scenario::ScenarioSpec spec = scenario::preset("failure");
  spec.run_seconds = 20.0;
  spec.seed = 14;
  const auto r = golden(spec, "mesh_with_failures").report;
  EXPECT_GT(r.links_failed, 1u) << "schedule produced <2 failures";
  EXPECT_GT(r.flows_rerouted, 0u) << "no flow ever rerouted";
  EXPECT_GT(r.failed_link_drops, 0u)
      << "no packet was ever caught on a failing link";
}

TEST(ScenarioGolden, ExplicitFailureSchedulePreemptPolicy) {
  // Two explicit overlapping outages on the center switch's links, with
  // preempt (no degrade): refused re-offers tear flows down.  The chosen
  // links cannot partition the 3x3 mesh, so every admitted flow ends
  // re-admitted, degraded or preempted — never orphaned.
  scenario::ScenarioSpec spec = scenario::preset("failure");
  spec.run_seconds = 16.0;
  spec.link_failure_rate = 0;  // explicit schedule only
  spec.reroute_policy = scenario::ReroutePolicy::kPreempt;
  spec.seed = 15;
  // Node ids: switches and hosts alternate in creation order; switch
  // (r,c) of the 3x3 mesh is node 2*(3r+c).
  spec.link_failures.push_back({2, 8, 3.0, 9.0});    // (0,1)<->(1,1)
  spec.link_failures.push_back({6, 8, 5.0, -1.0});   // (1,0)<->(1,1)
  spec.validate();
  const auto r = golden(spec, "explicit_failures_preempt").report;
  EXPECT_EQ(r.links_failed, 2u);
  EXPECT_GT(r.flows_rerouted, 0u) << "no flow ever rerouted";
  EXPECT_EQ(r.flows_orphaned, 0u)
      << "non-partitioning failures orphaned a flow";
}

TEST(ScenarioGolden, ChaosFaultPlane) {
  // The full fault plane at once: switch crashes, capacity brown-outs,
  // transient loss episodes, link flapping, degrade-to-datagram shedding
  // and backoff-driven re-admission, with the invariant monitor auditing
  // throughout.  Every fault event is drawn at prepare() and quantized to
  // the control grid.
  scenario::ScenarioSpec spec = scenario::preset("chaos");
  spec.seed = 17;
  const auto r = golden(spec, "chaos_fault_plane").report;
  EXPECT_GT(r.nodes_crashed, 0u) << "no switch ever crashed";
  EXPECT_GT(r.brownouts, 0u) << "no brown-out ever started";
  EXPECT_GT(r.loss_episodes, 0u) << "no loss episode ever started";
  EXPECT_GT(r.node_failure_drops, 0u)
      << "no packet was ever caught in a crashing switch";
  EXPECT_GT(r.fault_drops, 0u) << "transient loss never destroyed a packet";
  EXPECT_GT(r.restore_attempts, 0u) << "re-admission backoff never fired";
  EXPECT_EQ(r.invariant_violations, 0u) << "the monitor flagged the run";
}

TEST(ScenarioGolden, CcMixWithBinaryFeedback) {
  // All three service classes live at once, with the best-effort flows
  // driven by a round-robin mix of the reno/bbr/rack stacks and the
  // DEC-TR-506 feedback loop marking at the bottleneck's datagram class.
  scenario::ScenarioSpec spec = scenario::preset("parking_lot");
  scenario::apply_scale(spec, "small");
  spec.arrival_rate = 0;  // deterministic batch
  spec.target_flows = 18;
  spec.avg_rate_pps = 150.0;
  spec.source = scenario::SourceKind::kPoisson;
  spec.p_guaranteed = 0.2;
  spec.p_predicted = 0.3;
  spec.cc = scenario::CcKind::kMix;
  spec.binary_feedback = true;
  spec.seed = 18;
  const auto r = golden(spec, "cc_mix_binary_feedback").report;
  EXPECT_GT(r.cc_flows, 2u) << "mix never attached all three stacks";
  EXPECT_GT(r.cc_marks, 0u) << "the bottleneck never marked";
  EXPECT_GT(r.cc_echoes, 0u) << "no mark was ever echoed";
  EXPECT_GT(r.tcp_segments, 0u);
}

}  // namespace
}  // namespace ispn
