// The differential and digest harness shared by the whole-run suites.
//
// A run is reduced to one digest line: hashes of the full packet trace,
// the admission decision log and the per-flow outcome table, plus the
// event count, the conservation ledger and every control-plane, fault
// and transport counter.  Two runs are identical when their traces agree
// record by record (doubles compared bit-exactly) and their digest lines
// agree; a run is pinned across commits when its digest line matches the
// committed one in tests/golden_digests.txt.
//
// Hashes are FNV-1a over the bit patterns of the recorded values.  On
// drift, expect_digest() prints the replacement line, so the file never
// needs a regeneration switch; a change to it must be justified in
// CHANGES.md.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/tracer.h"
#include "scenario/runner.h"

namespace ispn::diff {

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Folds the bytes of one scalar into an FNV-1a hash.
template <typename T>
void mix(std::uint64_t& h, const T& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  for (std::size_t i = 0; i < sizeof v; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

inline std::uint64_t hash_trace(
    const std::vector<net::PacketTracer::Record>& recs) {
  std::uint64_t h = kFnvBasis;
  for (const auto& r : recs) {
    mix(h, r.time);
    mix(h, static_cast<std::uint8_t>(r.event));
    mix(h, r.flow);
    mix(h, r.seq);
    mix(h, r.node);
    mix(h, r.queueing_delay);
    mix(h, r.jitter_offset);
  }
  return h;
}

inline std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One traced scenario run.
struct Run {
  std::vector<net::PacketTracer::Record> trace;
  scenario::ScenarioReport report;
};

/// Runs `spec` at `shards` (0 = the classic single-clock engine) with
/// every packet traced.
inline Run run_scenario(scenario::ScenarioSpec spec, int shards) {
  spec.shards = shards;
  scenario::ScenarioRunner runner(std::move(spec));
  net::PacketTracer tracer(1u << 22);
  runner.set_tracer(&tracer);
  runner.prepare();
  tracer.attach(runner.net());  // ports exist once the fabric is built
  Run out;
  out.report = runner.run();
  tracer.finalize();  // merge per-domain buffers (no-op on the classic path)
  EXPECT_FALSE(tracer.truncated());
  EXPECT_TRUE(out.report.conserved());
  out.trace = tracer.records();
  return out;
}

/// The run's digest line (without its key).
inline std::string digest(const Run& run) {
  const scenario::ScenarioReport& r = run.report;
  std::uint64_t flows = kFnvBasis;
  for (const scenario::FlowOutcome& f : r.flows) {
    mix(flows, f.flow);
    mix(flows, static_cast<std::uint8_t>(f.service));
    mix(flows, f.admitted);
    mix(flows, f.hops);
    mix(flows, f.opened);
    mix(flows, f.closed);
    mix(flows, f.delivered);
    mix(flows, f.max_delay);
    mix(flows, f.bound);
    mix(flows, f.reroutes);
    mix(flows, f.degraded);
    mix(flows, f.path_epochs);
    mix(flows, f.max_delay_all);
  }
  std::ostringstream out;
  out << "records=" << run.trace.size()
      << " trace=" << hex(hash_trace(run.trace))
      << " decisions=" << hex(r.decision_hash()) << " flows=" << hex(flows)
      << " events=" << r.events << " ledger=" << r.generated << ','
      << r.source_drops << ',' << r.injected << ',' << r.delivered << ','
      << r.net_drops << ',' << r.failed_link_drops << ','
      << r.node_failure_drops << ',' << r.fault_drops << ',' << r.queued_end
      << ',' << r.unclaimed << " admission=" << r.flows_offered << ','
      << r.flows_admitted << ',' << r.flows_rejected << ','
      << r.flows_preempted << " topology=" << r.links_failed << ','
      << r.links_repaired << ',' << r.flows_rerouted << ','
      << r.flows_degraded << ',' << r.flows_orphaned << " faults="
      << r.nodes_crashed << ',' << r.nodes_recovered << ',' << r.brownouts
      << ',' << r.loss_episodes << ',' << r.flows_restored << ','
      << r.restore_attempts << ',' << r.invariant_violations
      << " cc=" << r.cc_flows << ',' << r.cc_marks << ','
      << r.cc_mark_samples << ',' << r.cc_echoes << ',' << r.cc_backoffs
      << " tcp=" << r.tcp_segments << ',' << r.tcp_delivered << ','
      << r.tcp_retransmits << ',' << r.tcp_timeouts << ','
      << r.tcp_reorder_timeouts;
  return out.str();
}

/// Bit-exact comparison: the first diverging trace record, then the
/// digest lines (decisions, flow table, ledger, counters).
inline void expect_identical(const Run& ref, const Run& got,
                             const std::string& what) {
  ASSERT_EQ(ref.trace.size(), got.trace.size()) << what;
  for (std::size_t i = 0; i < ref.trace.size(); ++i) {
    const auto& a = ref.trace[i];
    const auto& b = got.trace[i];
    ASSERT_TRUE(a.time == b.time && a.event == b.event && a.flow == b.flow &&
                a.seq == b.seq && a.node == b.node &&
                a.queueing_delay == b.queueing_delay &&
                a.jitter_offset == b.jitter_offset)
        << what << ": first divergence at record " << i << " (t=" << a.time
        << " flow " << a.flow << " seq " << a.seq << " vs t=" << b.time
        << " flow " << b.flow << " seq " << b.seq << ")";
  }
  EXPECT_EQ(digest(ref), digest(got)) << what;
}

inline std::map<std::string, std::string> load_digests() {
  const auto path =
      std::filesystem::path(__FILE__).parent_path() / "golden_digests.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    out[line.substr(0, space)] =
        space == std::string::npos ? "" : line.substr(space + 1);
  }
  return out;
}

/// Checks `got` against the committed digest line for `key`.
inline void expect_digest(const std::string& key, const std::string& got) {
  static const std::map<std::string, std::string> digests = load_digests();
  const auto it = digests.find(key);
  if (it == digests.end()) {
    ADD_FAILURE() << "no committed digest for " << key << "; add:\n"
                  << key << ' ' << got;
    return;
  }
  EXPECT_EQ(it->second, got) << "digest drift for " << key
                             << "; replacement line:\n"
                             << key << ' ' << got;
}

}  // namespace ispn::diff
