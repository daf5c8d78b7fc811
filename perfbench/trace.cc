#include "trace.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <vector>

#include "live.h"
#include "replica.h"

namespace perfbench {

namespace {

using ispn::net::NodeId;
using ispn::net::PacketTracer;
using ispn::scenario::ScenarioReport;

/// Slice lengths of the two live runs (simulated seconds).  The untraced
/// run supplies the runner-level host times at the finer slice; the
/// traced run's digest must match it at the coarser one.
constexpr double kPlainSlice = 0.02;
constexpr double kTracedSlice = 0.1;

constexpr double kUsPerNs = 1e-3;

const char* const kClassNames[3] = {"guaranteed", "predicted", "datagram"};

/// Skipping window sync that also marks each round: a round runs from
/// one next_window() call to the next (window execution, mailbox
/// exchange, control events up to the next barrier).
class RoundMarker final : public ispn::sim::ShardSync {
 public:
  explicit RoundMarker(SpanLog* log) : log_(log) {}

  std::uint64_t next_window(std::uint64_t current, ispn::sim::Time t_min,
                            ispn::sim::Duration window) const override {
    const std::int64_t t = now_ns();
    if (last_ >= 0) log_->add(SpanId::kRound, last_, t);
    last_ = t;
    return inner_.next_window(current, t_min, window);
  }
  const char* name() const override { return "skipping+marker"; }

  /// Ends the current round at a slice boundary: the time until the next
  /// slice's first call is the benchmark's, not a round's.
  void cut() const { last_ = -1; }

 private:
  ispn::sim::SkippingWindowSync inner_;
  SpanLog* log_;
  mutable std::int64_t last_ = -1;
};

/// Queueing delays of every data delivery, taken from the tracer after
/// each slice (so its buffer stays one slice deep).  A flow's first
/// delivery fixes its data destination; later deliveries elsewhere are the
/// flow's ACKs, which the report's per-class statistics do not count.
class TailSamples {
 public:
  /// Moves the tracer's delivery records into the sample.  Returns false
  /// when the tracer dropped records (its cap was hit inside a slice).
  bool harvest(PacketTracer& tracer) {
    tracer.finalize();
    const bool complete = !tracer.truncated();
    for (const PacketTracer::Record& r : tracer.records()) {
      if (r.event != PacketTracer::Event::kDeliver) continue;
      const auto flow = static_cast<std::size_t>(r.flow);
      if (flow >= data_dst_.size()) {
        data_dst_.resize(flow + 1, ispn::net::kNoNode);
      }
      if (data_dst_[flow] == ispn::net::kNoNode) data_dst_[flow] = r.node;
      if (r.node != data_dst_[flow]) continue;
      samples_.push_back({static_cast<std::uint32_t>(flow),
                          static_cast<float>(r.queueing_delay)});
    }
    tracer.clear();
    return complete;
  }

  /// Exact per-class delays, classed by each flow's reported service.
  std::array<std::vector<double>, 3> by_class(const ScenarioReport& r) const {
    std::array<std::vector<double>, 3> out;
    for (const Sample& s : samples_) {
      const auto c =
          static_cast<std::size_t>(r.flows[s.flow].service);
      out[c].push_back(s.delay);
    }
    return out;
  }

 private:
  struct Sample {
    std::uint32_t flow;
    float delay;
  };
  std::vector<Sample> samples_;
  std::vector<NodeId> data_dst_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Absolute relative error of a P² estimate against the exact quantile.
double p2_error(double p2, const std::vector<double>& exact, double q) {
  if (exact.empty()) return 0;
  const double truth = quantile(exact, q);
  return truth > 0 ? std::fabs(p2 - truth) / truth : 0;
}

}  // namespace

Result traced(const Workload& w, const std::string& out_dir) {
  Result res;
  const bool sharded = w.spec.shards > 0;

  // 1. Untraced live run, first in the process so its resident-memory
  //    growth is not hidden by memory an earlier run freed.
  LiveOptions plain_opt;
  plain_opt.slice_s = kPlainSlice;
  const LiveRun plain = run_live(w, plain_opt);

  // 2. Traced live run: runner-level spans, shard rounds, every delivery.
  SpanLog live_spans;
  PacketTracer tracer;
  TailSamples tails;
  RoundMarker marker(&live_spans);
  bool tails_complete = true;
  LiveOptions traced_opt;
  traced_opt.slice_s = kTracedSlice;
  traced_opt.spans = &live_spans;
  traced_opt.tracer = &tracer;
  traced_opt.sync = sharded ? &marker : nullptr;
  traced_opt.after_slice = [&] {
    marker.cut();
    tails_complete = tails.harvest(tracer) && tails_complete;
  };
  const LiveRun live = run_live(w, traced_opt);

  // 3. Replica fabric (classic engine only): traced, then untraced.
  SpanLog rep_spans;
  ReplicaRun rep, rep_plain;
  if (!sharded) {
    rep = run_replica(w, &rep_spans);
    rep_plain = run_replica(w, nullptr);
  }

  // 4. Sharded speed-up baseline: the same workload on the classic engine.
  double classic_pps = 0;
  std::string classic_failure;
  if (sharded) {
    Workload classic_w = w;
    classic_w.spec.shards = 0;
    const LiveRun classic = run_live(classic_w, plain_opt);
    classic_pps = classic.pkts_per_s();
    classic_failure = classic.failure;
  }

  // Output checks: every live run correct; the traced run also matches
  // the untraced one's digest at the other slice length.
  std::string live_failure = live.failure;
  if (live_failure.empty() && live.digest != plain.digest) {
    live_failure = "traced and untraced digests differ";
  }
  if (live_failure.empty() && !tails_complete) {
    live_failure = "packet tracer truncated";
  }
  std::vector<std::string> runs = {plain.failure, live_failure};
  if (sharded) runs.push_back(classic_failure);
  res.attempted = runs.size();
  for (const std::string& f : runs) {
    if (f.empty()) continue;
    ++res.failed;
    std::fprintf(stderr, "perfbench: traced-mode run failed: %s\n", f.c_str());
  }
  res.correct = res.failed == 0;

  const ScenarioReport& r = plain.report;
  std::uint64_t data_delivered = 0;
  for (const auto& c : r.classes) data_delivered += c.delivered;
  const std::vector<double> rounds_ns = live_spans.durations(SpanId::kRound);
  std::vector<double> open_us = rep_spans.durations(SpanId::kOpenFlow);
  for (double& v : open_us) v = (v - rep_spans.clock_ns()) * kUsPerNs;
  std::vector<double> reroute_slices;
  for (std::size_t i = 0; i < plain.slice_ms.size(); ++i) {
    if (plain.slice_rerouted[i]) reroute_slices.push_back(plain.slice_ms[i]);
  }
  const auto& sched_enq = rep_spans.agg(SpanId::kEnqueue);
  const auto& sched_deq = rep_spans.agg(SpanId::kDequeue);

  std::vector<Metric>& m = res.metrics;
  // sim: event-core work per packet and cost per event (untraced run).
  m.push_back({"sim.events_per_pkt", ratio(r.events, r.delivered), "events/pkt"});
  m.push_back({"sim.ns_per_event",
               ratio(plain.window_s * 1e9,
                     static_cast<double>(plain.window_events)),
               "ns"});
  // shard: barrier rounds (zero on the classic engine).
  m.push_back({"shard.rounds_per_sim_s",
               ratio(static_cast<double>(plain.rounds), r.end_time), "1/s"});
  m.push_back({"shard.events_per_round", ratio(r.events, plain.rounds),
               "events"});
  m.push_back({"shard.round_us_p50", quantile(rounds_ns, 0.5) * kUsPerNs, "us"});
  m.push_back({"shard.round_us_p99", quantile(rounds_ns, 0.99) * kUsPerNs, "us"});
  m.push_back({"shard.speedup", ratio(plain.pkts_per_s(), classic_pps), "x"});
  // sched: replica spans; mark and drop ratios from the live report.
  m.push_back({"sched.enqueue_ns",
               rep_spans.self_ns_per_call(SpanId::kEnqueue), "ns"});
  m.push_back({"sched.dequeue_ns",
               rep_spans.self_ns_per_call(SpanId::kDequeue), "ns"});
  m.push_back({"sched.calls_per_pkt",
               ratio(sched_enq.calls + sched_deq.calls, rep.delivered),
               "calls/pkt"});
  m.push_back({"sched.mark_ratio", ratio(r.cc_marks, r.cc_mark_samples),
               "ratio"});
  m.push_back({"sched.drop_ratio", ratio(r.net_drops, r.injected), "ratio"});
  // net: host injection and the residual (event core + port + switch +
  // timers + sources + sinks) per delivered packet, from the replica.
  m.push_back({"net.inject_ns",
               rep_spans.self_ns_per_call(SpanId::kInject), "ns"});
  m.push_back({"net.residual_ns_per_pkt",
               ratio(rep_spans.self_ns(SpanId::kReplicaSlice),
                     static_cast<double>(rep.slice_pkts)),
               "ns"});
  m.push_back({"net.route_cache_hit_ratio",
               ratio(r.route_cache_hits,
                     r.route_cache_hits + r.route_cache_misses),
               "ratio"});
  m.push_back({"net.sink_label_hit_ratio",
               ratio(r.sink_label_hits, r.delivered), "ratio"});
  // traffic: the TCP pair (replica spans) and the live transport counts.
  m.push_back({"traffic.ack_ns", rep_spans.self_ns_per_call(SpanId::kAck),
               "ns"});
  m.push_back({"traffic.data_rx_ns",
               rep_spans.self_ns_per_call(SpanId::kDataRx), "ns"});
  m.push_back({"traffic.retransmit_ratio",
               ratio(r.tcp_retransmits, r.tcp_segments), "ratio"});
  m.push_back({"traffic.ack_share",
               ratio(r.delivered - data_delivered, r.delivered), "ratio"});
  // core: admission and teardown (replica spans), rejects and set-up cost
  // per batch flow (live).
  m.push_back({"core.open_flow_us_p50", quantile(open_us, 0.5), "us"});
  m.push_back({"core.open_flow_us_p99", quantile(open_us, 0.99), "us"});
  m.push_back({"core.close_flow_us",
               rep_spans.self_ns_per_call(SpanId::kCloseFlow) * kUsPerNs, "us"});
  m.push_back({"core.reject_ratio", ratio(r.flows_rejected, r.flows_offered),
               "ratio"});
  m.push_back({"core.setup_us_per_flow",
               ratio(plain.setup_s * 1e6,
                     static_cast<double>(plain.batch_flows)),
               "us"});
  // scenario: host time per fixed simulated slice, the drain, audits.
  m.push_back({"scenario.slice_ms_p50", quantile(plain.slice_ms, 0.5), "ms"});
  m.push_back({"scenario.slice_ms_p99", quantile(plain.slice_ms, 0.99), "ms"});
  m.push_back({"scenario.finish_s", plain.finish_s, "s"});
  m.push_back({"scenario.audits", static_cast<double>(r.invariant_audits),
               "count"});
  // fault: episodes applied, and the slices where flows were rerouted or
  // degraded.
  m.push_back({"fault.events",
               static_cast<double>(r.links_failed + r.nodes_crashed +
                                   r.brownouts + r.loss_episodes),
               "count"});
  m.push_back({"fault.reroute_slice_ms_p50", quantile(reroute_slices, 0.5),
               "ms"});
  // mem: steady-state allocations and per-flow resident memory.
  m.push_back({"mem.allocs_per_kpkt",
               ratio(static_cast<double>(plain.window_allocs) * 1e3,
                     static_cast<double>(plain.window_pkts)),
               "allocs/kpkt"});
  m.push_back({"mem.rss_kb_per_flow",
               ratio(plain.rss_growth_kb,
                     static_cast<double>(r.flows_admitted)),
               "kB"});
  // stats: P² tails against exact tails from the tracer's deliveries.
  const auto exact = tails.by_class(live.report);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto& cls = live.report.classes[c];
    if (exact[c].size() != cls.delivered) {
      std::fprintf(stderr,
                   "perfbench: %s: %zu traced deliveries, report counts "
                   "%llu (class taken from each flow's final service)\n",
                   kClassNames[c], exact[c].size(),
                   static_cast<unsigned long long>(cls.delivered));
    }
    m.push_back({std::string("stats.p2_p99_err.") + kClassNames[c],
                 p2_error(cls.p99.value(), exact[c], 0.99), "ratio"});
    m.push_back({std::string("stats.p2_p999_err.") + kClassNames[c],
                 p2_error(cls.p999.value(), exact[c], 0.999), "ratio"});
  }
  // trace: what tracing costs, and how close the replica is to the live run.
  m.push_back({"trace.live_overhead",
               1.0 - ratio(live.pkts_per_s(), plain.pkts_per_s()), "ratio"});
  m.push_back({"trace.replica_overhead",
               sharded ? 0.0 : 1.0 - ratio(rep.pkts_per_s(),
                                           rep_plain.pkts_per_s()),
               "ratio"});
  m.push_back({"trace.live_delivered", static_cast<double>(r.delivered),
               "count"});
  m.push_back({"trace.replica_delivered", static_cast<double>(rep.delivered),
               "count"});
  m.push_back({"trace.live_events", static_cast<double>(r.events), "count"});
  m.push_back({"trace.replica_events", static_cast<double>(rep.events),
               "count"});

  const std::string stem = out_dir + "/trace_" + w.name + "_" +
                           std::to_string(w.spec.seed);
  if (!live_spans.write_chrome_trace(stem + "_live.json") ||
      (!sharded && !rep_spans.write_chrome_trace(stem + "_replica.json"))) {
    std::fprintf(stderr, "perfbench: cannot write %s_*.json\n", stem.c_str());
  }
  return res;
}

}  // namespace perfbench
