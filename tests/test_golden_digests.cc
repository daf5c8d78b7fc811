// Committed behaviour digests for the net-level and scheduler workloads
// (tests/golden_digests.txt; see tests/diff_harness.h).
//
// The differential suites prove that code paths agree with each other
// within one build; a change that alters all of them the same way passes
// them silently.  These digests pin behaviour across commits instead.
// The scenario digests are checked by test_scenario_golden (every golden
// scenario at shards {0, 1, 2, 4}) and the classic congestion-control
// digests by test_cc_diff; this suite covers the rest:
//
//   * three net-level workloads, ten seeds each: the Figure-1 chain under
//     WFQ with policed on/off sources, a FIFO fan-in under Poisson
//     overload, and a TCP dumbbell with CBR cross traffic (RTO re-arms,
//     retransmits).  Digest: trace hash, per-flow stats hash, event count.
//   * seeded WFQ and unified scheduler fuzz workloads (mixed sizes,
//     uneven weights, bursts, pushout overload, stale discards) at 3, 16
//     and 100 flows — below, across and above the OrderIndex heap/calendar
//     switch.  Digest: the departure/drop trace plus the bits of V(t)
//     after every operation.
//
// Exact bits are deliberate: delays and weight sums accumulate in firing
// and pop order, so even one transposition of an equal-time or equal-tag
// pair surfaces as a differing bit pattern downstream.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "diff_harness.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/tracer.h"
#include "sched/fifo.h"
#include "sched/unified.h"
#include "sched/wfq.h"
#include "sched_test_util.h"
#include "sim/random.h"
#include "traffic/cbr_source.h"
#include "traffic/onoff_source.h"
#include "traffic/poisson_source.h"
#include "traffic/tcp.h"

namespace ispn {
namespace {

using diff::expect_digest;
using diff::hex;
using diff::kFnvBasis;
using diff::mix;

// --- net-level workloads ---------------------------------------------------

/// A net-level run: its digest line plus the activity the suite requires
/// to be non-vacuous.
struct NetRun {
  std::string line;
  std::uint64_t drops = 0;
  std::uint64_t retransmits = 0;
};

NetRun net_digest(net::Network& net, const net::PacketTracer& tracer) {
  std::uint64_t stats = kFnvBasis;
  for (const auto& [flow, st] : net.all_stats()) {
    mix(stats, flow);
    mix(stats, static_cast<std::uint64_t>(st.generated));
    mix(stats, st.source_drops);
    mix(stats, static_cast<std::uint64_t>(st.injected));
    mix(stats, static_cast<std::uint64_t>(st.net_drops));
    mix(stats, st.received);
    mix(stats, st.bits_received);
    mix(stats, st.queueing_delay.count());
    mix(stats, st.queueing_delay.empty() ? 0.0 : st.queueing_delay.mean());
    mix(stats, st.queueing_delay.empty() ? 0.0 : st.queueing_delay.max());
    mix(stats, st.e2e_delay.count());
    mix(stats, st.e2e_delay.empty() ? 0.0 : st.e2e_delay.mean());
    mix(stats, st.e2e_delay.empty() ? 0.0 : st.e2e_delay.max());
  }
  NetRun run;
  run.drops = tracer.count(net::PacketTracer::Event::kDrop);
  std::ostringstream out;
  out << "records=" << tracer.records().size()
      << " trace=" << hex(diff::hash_trace(tracer.records()))
      << " stats=" << hex(stats) << " events=" << net.sim().processed()
      << " drops=" << run.drops;
  run.line = out.str();
  return run;
}

/// The Figure-1 chain under WFQ: 10 policed on/off flows with mixed path
/// lengths plus 2 CBR probes, 6 simulated seconds.
NetRun run_chain_wfq(std::uint64_t seed) {
  net::Network net;
  const auto topo = net::build_chain(net, 5, 1e6, [] {
    return std::make_unique<sched::WfqScheduler>(
        sched::WfqScheduler::Config{1e6, 40, 1e4});
  });
  net::PacketTracer tracer(1u << 22);
  tracer.attach(net);

  std::vector<std::unique_ptr<traffic::Source>> sources;
  traffic::OnOffSource::Config on_off;  // paper defaults: A=85, B=5, P=2A
  for (int f = 0; f < 10; ++f) {
    const std::size_t src_sw = static_cast<std::size_t>(f % 2);
    const std::size_t dst_sw = static_cast<std::size_t>(4 - (f % 3));
    const net::NodeId src = topo.hosts[src_sw];
    const net::NodeId dst = topo.hosts[dst_sw];
    net::Host& host = net.host(src);
    auto s = std::make_unique<traffic::OnOffSource>(
        net.sim(), on_off, sim::Rng(seed, static_cast<std::uint64_t>(f)), f,
        src, dst, [&host](net::PacketPtr p) { host.inject(std::move(p)); },
        &net.stats(f), on_off.paper_filter());
    s->start(0.01 * f);
    net.attach_stats_sink(f, dst, tracer.wrap_sink());
    sources.push_back(std::move(s));
  }
  for (int f = 10; f < 12; ++f) {
    const net::NodeId src = topo.hosts[0];
    const net::NodeId dst = topo.hosts[4];
    net::Host& host = net.host(src);
    auto s = std::make_unique<traffic::CbrSource>(
        net.sim(), traffic::CbrSource::Config{120.0 + 10.0 * f}, f, src, dst,
        [&host](net::PacketPtr p) { host.inject(std::move(p)); },
        &net.stats(f));
    s->start(0.005 * f);
    net.attach_stats_sink(f, dst, tracer.wrap_sink());
    sources.push_back(std::move(s));
  }

  net.sim().run_until(6.0);
  return net_digest(net, tracer);
}

/// Fan-in overload under FIFO: four Poisson feeds converge on one
/// bottleneck, 6 simulated seconds.
NetRun run_fan_in_fifo(std::uint64_t seed) {
  net::Network net;
  const auto topo = net::build_fan_in(net, 4, 2e6, 1e6, [] {
    return std::make_unique<sched::FifoScheduler>(30);
  });
  net::PacketTracer tracer(1u << 22);
  tracer.attach(net);

  std::vector<std::unique_ptr<traffic::Source>> sources;
  for (int f = 0; f < 4; ++f) {
    const net::NodeId src = topo.src_hosts[static_cast<std::size_t>(f)];
    const net::NodeId dst = topo.sink_host;
    net::Host& host = net.host(src);
    auto s = std::make_unique<traffic::PoissonSource>(
        net.sim(), traffic::PoissonSource::Config{300.0 + 50.0 * f},
        sim::Rng(seed, 100 + static_cast<std::uint64_t>(f)), f, src, dst,
        [&host](net::PacketPtr p) { host.inject(std::move(p)); },
        &net.stats(f));
    s->start(0.002 * f);
    net.attach_stats_sink(f, dst, tracer.wrap_sink());
    sources.push_back(std::move(s));
  }

  net.sim().run_until(6.0);
  return net_digest(net, tracer);
}

/// TCP with CBR cross traffic on a tight dumbbell: RTO re-arms, fast
/// retransmit and the ACK reverse path, 8 simulated seconds.
NetRun run_tcp_dumbbell(std::uint64_t seed) {
  net::Network net;
  const auto topo = net::build_dumbbell(net, 1e6, [] {
    return std::make_unique<sched::FifoScheduler>(12);
  });
  net::PacketTracer tracer(1u << 22);
  tracer.attach(net);

  net::Host& left = net.host(topo.left_host);
  net::Host& right = net.host(topo.right_host);
  traffic::TcpSource::Config cfg;
  traffic::TcpSource tcp(
      net.sim(), cfg, 1, topo.left_host, topo.right_host,
      [&left](net::PacketPtr p) { left.inject(std::move(p)); }, &net.stats(1));
  traffic::TcpSink sink(net.sim(), cfg, 1, topo.right_host, topo.left_host,
                        [&right](net::PacketPtr p) {
                          right.inject(std::move(p));
                        });
  left.register_sink(1, &tcp);
  net.attach_stats_sink(1, topo.right_host, &sink);

  // CBR cross traffic paced off the seed so runs differ across seeds.
  traffic::CbrSource cross(
      net.sim(),
      traffic::CbrSource::Config{400.0 + static_cast<double>(seed % 7) * 25.0},
      2, topo.left_host, topo.right_host,
      [&left](net::PacketPtr p) { left.inject(std::move(p)); }, &net.stats(2));
  net.attach_stats_sink(2, topo.right_host, tracer.wrap_sink());

  tcp.start(0);
  cross.start(0.001);
  net.sim().run_until(8.0);
  NetRun run = net_digest(net, tracer);
  run.retransmits = tcp.retransmits();
  run.line += " retransmits=" + std::to_string(run.retransmits);
  return run;
}

TEST(GoldenDigests, NetWorkloads) {
  std::uint64_t fifo_drops = 0;
  std::uint64_t retransmits = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::string s = ".seed" + std::to_string(seed);
    expect_digest("net.chain_wfq" + s, run_chain_wfq(seed).line);
    const NetRun fan = run_fan_in_fifo(seed);
    expect_digest("net.fan_in_fifo" + s, fan.line);
    const NetRun tcp = run_tcp_dumbbell(seed);
    expect_digest("net.tcp_dumbbell" + s, tcp.line);
    fifo_drops += fan.drops;
    retransmits += tcp.retransmits;
  }
  // The digests pin drops and retransmissions only if they happen.
  EXPECT_GT(fifo_drops, 0u) << "fan-in never overloaded its bottleneck";
  EXPECT_GT(retransmits, 0u) << "TCP never hit the tiny buffer";
}

// --- scheduler fuzz workloads ----------------------------------------------

// One pre-generated workload step, replayed verbatim so every run sees
// byte-identical inputs regardless of what the scheduler does with them.
struct Op {
  enum class Kind : std::uint8_t { kEnqueue, kDequeue, kAdvance };
  Kind kind{};
  net::FlowId flow = 0;
  std::uint64_t seq = 0;
  sim::Bits size_bits = 0;
  double jitter_offset = 0;
  std::uint8_t cls = 0;  ///< unified: 0..1 predicted, 2 datagram, 3 guaranteed
  double dt = 0;         ///< advance: time step
};

struct Workload {
  std::vector<Op> ops;
  std::vector<double> weights;  ///< per flow (wfq weight / guaranteed rate)
};

/// Mixed sizes, bursts, uneven weights, overload phases.  ~6k ops.
Workload make_workload(std::uint64_t seed, int flows) {
  std::mt19937_64 rng(seed * 7919 + flows);
  Workload w;
  w.weights.reserve(flows);
  for (int f = 0; f < flows; ++f) {
    w.weights.push_back(1e3 * (1.0 + static_cast<double>(rng() % 8)) /
                        flows * 4.0);
  }
  std::uint64_t seq = 0;
  for (int step = 0; step < 2000; ++step) {
    const int burst = 1 + static_cast<int>(rng() % 4);
    for (int b = 0; b < burst; ++b) {
      Op op;
      op.kind = Op::Kind::kEnqueue;
      op.flow = static_cast<net::FlowId>(rng() % flows);
      op.seq = seq++;
      op.size_bits = 100.0 + static_cast<double>(rng() % 120) * 100.0;
      op.jitter_offset = (rng() % 4 == 0)
                             ? static_cast<double>(rng() % 100) * 1e-3
                             : 0.0;
      op.cls = static_cast<std::uint8_t>(rng() % 4);
      w.ops.push_back(op);
    }
    const int deqs = static_cast<int>(rng() % 3);
    for (int d = 0; d < deqs; ++d) {
      w.ops.push_back(Op{Op::Kind::kDequeue, 0, 0, 0, 0, 0, 0});
    }
    Op adv;
    adv.kind = Op::Kind::kAdvance;
    adv.dt = (rng() % 8 == 0) ? 0.0
                              : static_cast<double>(1 + rng() % 50) * 1e-4;
    w.ops.push_back(adv);
  }
  return w;
}

/// Hashes a scheduler run as it happens: every emitted packet (departure
/// or drop, in emission order) and the bits of V(t) after every op.
struct SchedRun {
  std::uint64_t packets = kFnvBasis;
  std::uint64_t vtimes = kFnvBasis;
  std::size_t emitted = 0;
  std::size_t drops = 0;
  std::size_t stale = 0;
  double last_vtime = 0;

  void emit(const net::Packet& p, bool drop) {
    mix(packets, static_cast<std::uint8_t>(drop));
    mix(packets, p.flow);
    mix(packets, p.seq);
    mix(packets, p.size_bits);
    ++emitted;
    if (drop) ++drops;
  }
  void sample(double v) {
    mix(vtimes, v);
    last_vtime = v;
  }
  [[nodiscard]] std::string line() const {
    std::ostringstream out;
    out << "events=" << emitted << " drops=" << drops
        << " trace=" << hex(packets) << " vtime=" << hex(vtimes);
    return out.str();
  }
};

/// Replays `w` through `sched`, then drains it.
template <typename Sched>
SchedRun replay(Sched& sched, const Workload& w, bool unified) {
  SchedRun run;
  sched.set_drop_sink([&run](net::PacketPtr victim, sim::Time) {
    run.emit(*victim, /*drop=*/true);
  });
  double now = 0;
  for (const Op& op : w.ops) {
    switch (op.kind) {
      case Op::Kind::kEnqueue: {
        auto p = sched_test::pkt(op.flow, op.seq, now, op.size_bits);
        if (unified) {
          if (op.cls == 3) {
            p->service = net::ServiceClass::kGuaranteed;
          } else if (op.cls == 2) {
            p->service = net::ServiceClass::kDatagram;
          } else {
            p->service = net::ServiceClass::kPredicted;
            p->priority = op.cls;
            p->jitter_offset = op.jitter_offset;
          }
        } else {
          p->service = net::ServiceClass::kPredicted;
        }
        sched.enqueue(std::move(p), now);
        break;
      }
      case Op::Kind::kDequeue: {
        auto p = sched.dequeue(now);
        if (p != nullptr) run.emit(*p, /*drop=*/false);
        break;
      }
      case Op::Kind::kAdvance:
        now += op.dt;
        break;
    }
    run.sample(sched.virtual_time(now));
  }
  now += 10.0;
  while (!sched.empty()) {
    auto p = sched.dequeue(now);
    if (p != nullptr) run.emit(*p, /*drop=*/false);
    run.sample(sched.virtual_time(now));
    now += 1e-3;
  }
  sched.set_drop_sink({});
  return run;
}

SchedRun run_wfq(std::uint64_t seed, int flows) {
  const Workload w = make_workload(seed, flows);
  // Small buffer so bursts push packets out.
  sched::WfqScheduler sched(sched::WfqScheduler::Config{1e6, 24, 1.0});
  for (int f = 0; f < flows; ++f) {
    sched.add_flow(f, w.weights[static_cast<std::size_t>(f)]);
  }
  return replay(sched, w, /*unified=*/false);
}

SchedRun run_unified(std::uint64_t seed, int flows) {
  const Workload w = make_workload(seed, flows);
  sched::UnifiedScheduler::Config cfg;
  cfg.link_rate = 1e6;
  cfg.capacity_pkts = 24;
  cfg.num_predicted_classes = 2;
  cfg.fifo_plus = true;
  cfg.stale_offset_threshold = 0.05;  // exercise dequeue-time discards
  sched::UnifiedScheduler sched(cfg);
  // A third of the flows get guaranteed service (their cls==3 packets use
  // the WFQ outer layer); the rest map to predicted classes.
  for (int f = 0; f < flows; f += 3) {
    sched.add_guaranteed(f, w.weights[static_cast<std::size_t>(f)] + 100.0);
  }
  for (int f = 1; f < flows; f += 3) sched.set_predicted_priority(f, f % 2);
  SchedRun run = replay(sched, w, /*unified=*/true);
  run.stale = sched.stale_discards();
  return run;
}

TEST(GoldenDigests, SchedulerFuzz) {
  std::size_t wfq_drops = 0;
  std::size_t stale = 0;
  for (const int flows : {3, 16, 100}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const std::string s =
          ".flows" + std::to_string(flows) + ".seed" + std::to_string(seed);
      const SchedRun wfq = run_wfq(seed, flows);
      expect_digest("sched.wfq" + s, wfq.line());
      const SchedRun unified = run_unified(seed, flows);
      expect_digest("sched.unified" + s,
                    unified.line() + " stale=" + std::to_string(unified.stale));
      EXPECT_GT(wfq.emitted, 0u);
      EXPECT_GT(wfq.last_vtime, 0.0);
      wfq_drops += wfq.drops;
      stale += unified.stale;
    }
  }
  // The digests pin pushout and stale discards only if they happen.
  EXPECT_GT(wfq_drops, 0u) << "pushout path never ran";
  EXPECT_GT(stale, 0u) << "stale-discard path never ran";
}

}  // namespace
}  // namespace ispn
