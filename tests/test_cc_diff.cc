// Differential determinism for the pluggable congestion-control stacks.
//
// The contract: a responsive (TCP-driven) scenario is a function of the
// SPEC alone.  For every CC stack {reno, bbr, rack} the packet trace, the
// admission decision log, the conservation ledger, the per-flow outcome
// table AND the feedback counters (marks, echoes, backoffs) are pinned
// through tests/diff_harness.h:
//
//   * classic runs (shards=0) against their committed digests in
//     tests/golden_digests.txt;
//   * sharded runs across shard counts {1, 2, 4}, record for record.
//
// shards=0 (classic, zero propagation delay) and shards>=1 (per-hop link
// latency) are distinct deterministic references by design.
//
// Two seeded workloads per stack: a dumbbell (2-switch chain, the
// canonical shared bottleneck) and an overloaded parking lot (drops =>
// retransmissions, recovery, reorder timers).  Binary feedback is on
// everywhere so the mark/echo/backoff loop is part of the pinned surface.

#include <gtest/gtest.h>

#include <string>

#include "diff_harness.h"

namespace ispn {
namespace {

scenario::ScenarioSpec dumbbell_spec(scenario::CcKind cc, std::uint64_t seed) {
  scenario::ScenarioSpec spec = scenario::preset("chain");
  spec.chain_switches = 2;  // the canonical dumbbell bottleneck
  scenario::apply_scale(spec, "small");
  spec.arrival_rate = 0;  // deterministic batch admission
  spec.target_flows = 12;
  spec.p_guaranteed = 0.2;
  spec.p_predicted = 0.3;  // half the flows are responsive datagram
  spec.cc = cc;
  spec.binary_feedback = true;
  spec.seed = seed;
  return spec;
}

scenario::ScenarioSpec parking_spec(scenario::CcKind cc, std::uint64_t seed) {
  scenario::ScenarioSpec spec = scenario::preset("parking_lot");
  scenario::apply_scale(spec, "small");
  spec.arrival_rate = 0;
  spec.target_flows = 16;
  spec.p_guaranteed = 0.15;
  spec.p_predicted = 0.25;
  spec.avg_rate_pps = 150.0;  // open-loop classes keep the lot loaded
  spec.cc = cc;
  spec.binary_feedback = true;
  spec.seed = seed;
  return spec;
}

constexpr scenario::CcKind kStacks[] = {
    scenario::CcKind::kReno, scenario::CcKind::kBbr, scenario::CcKind::kRack};

/// shards=0: the classic single-clock run, checked against its digest.
void classic_digest(const scenario::ScenarioSpec& spec,
                    const std::string& key) {
  const diff::Run run = diff::run_scenario(spec, 0);
  EXPECT_GT(run.trace.size(), 500u)
      << key << ": workload too small to prove anything";
  EXPECT_GT(run.report.cc_flows, 0u) << key << ": no responsive flow attached";
  EXPECT_GT(run.report.tcp_segments, 0u) << key;
  diff::expect_digest(key, diff::digest(run));
}

/// shards>=1: the sharded reference, identical at every worker count.
void sharded_diff(const scenario::ScenarioSpec& spec,
                  const std::string& label) {
  const diff::Run ref = diff::run_scenario(spec, 1);
  EXPECT_GT(ref.trace.size(), 500u)
      << label << ": workload too small to prove anything";
  EXPECT_GT(ref.report.cc_flows, 0u)
      << label << ": no responsive flow attached";
  for (const int shards : {2, 4}) {
    diff::expect_identical(ref, diff::run_scenario(spec, shards),
                           label + " at shards=" + std::to_string(shards));
  }
}

TEST(CcDiff, DumbbellClassicMatchesDigestsPerStack) {
  for (const auto cc : kStacks) {
    for (const std::uint64_t seed : {101ull, 102ull}) {
      classic_digest(dumbbell_spec(cc, seed),
                     std::string("cc.dumbbell.") + scenario::to_string(cc) +
                         ".seed" + std::to_string(seed));
    }
  }
}

TEST(CcDiff, DumbbellShardedAgreesPerStack) {
  for (const auto cc : kStacks) {
    sharded_diff(dumbbell_spec(cc, 103),
                 std::string("dumbbell cc=") + scenario::to_string(cc) +
                     " seed 103");
  }
}

TEST(CcDiff, ParkingLotClassicMatchesDigestsPerStack) {
  for (const auto cc : kStacks) {
    for (const std::uint64_t seed : {201ull, 202ull}) {
      classic_digest(parking_spec(cc, seed),
                     std::string("cc.parking_lot.") + scenario::to_string(cc) +
                         ".seed" + std::to_string(seed));
    }
  }
}

TEST(CcDiff, ParkingLotShardedAgreesPerStack) {
  for (const auto cc : kStacks) {
    sharded_diff(parking_spec(cc, 203),
                 std::string("parking lot cc=") + scenario::to_string(cc) +
                     " seed 203");
  }
}

TEST(CcDiff, MixedStacksAgreeAcrossEverything) {
  // cc=mix assigns reno/bbr/rack round-robin by flow id: all three stacks
  // interleave on the same bottleneck in one run.
  for (const std::uint64_t seed : {301ull, 302ull}) {
    classic_digest(dumbbell_spec(scenario::CcKind::kMix, seed),
                   "cc.dumbbell.mix.seed" + std::to_string(seed));
  }
  sharded_diff(parking_spec(scenario::CcKind::kMix, 303),
               "parking lot cc=mix seed 303");
}

TEST(CcDiff, StacksActuallyDiffer) {
  // Sanity against a stub: the three stacks must produce DIFFERENT traces
  // on the same seed (else the dispatch is dead and the suite proves
  // nothing).  Compared via segment counts + event counts, which diverge
  // as soon as pacing/loss-detection behaviour differs.
  const auto run = [](scenario::CcKind cc) {
    return diff::run_scenario(dumbbell_spec(cc, 101), 0);
  };
  const diff::Run reno = run(scenario::CcKind::kReno);
  const diff::Run bbr = run(scenario::CcKind::kBbr);
  const diff::Run rack = run(scenario::CcKind::kRack);
  EXPECT_TRUE(reno.trace.size() != bbr.trace.size() ||
              reno.report.tcp_segments != bbr.report.tcp_segments ||
              reno.report.events != bbr.report.events)
      << "reno and bbr produced identical runs";
  EXPECT_TRUE(rack.trace.size() != bbr.trace.size() ||
              rack.report.tcp_segments != bbr.report.tcp_segments ||
              rack.report.events != bbr.report.events)
      << "rack and bbr produced identical runs";
}

}  // namespace
}  // namespace ispn
