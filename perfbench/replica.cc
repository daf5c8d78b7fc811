#include "replica.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "net/topology.h"
#include "sched/scheduler.h"
#include "sim/random.h"
#include "traffic/cbr_source.h"
#include "traffic/onoff_source.h"
#include "traffic/poisson_source.h"
#include "traffic/tcp.h"

namespace perfbench {

namespace {

using ispn::net::FlowId;
using ispn::net::NodeId;
using ispn::net::PacketPtr;
using ispn::net::ServiceClass;
using ispn::scenario::CcKind;
using ispn::scenario::FabricKind;
using ispn::scenario::SourceKind;

/// Simulated seconds per spanned run_until() slice.
constexpr double kSlice = 0.02;

/// The scenario runner's random stream ids.  Drawing flows and holding
/// times in the runner's order from the same streams makes the replica of
/// a fault-free workload open exactly the live run's flows.
constexpr std::uint64_t kWorkloadStream = 0xFAB;
constexpr std::uint64_t kSourceStreamBase = 1ull << 32;

/// Forwards every call to the wrapped discipline, timing enqueue and
/// dequeue.
class TimedScheduler final : public ispn::sched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<ispn::sched::Scheduler> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  void set_drop_sink(DropSink sink) override {
    inner_->set_drop_sink(std::move(sink));
  }
  void enqueue(PacketPtr p, ispn::sim::Time now) override {
    Span s(log_, SpanId::kEnqueue);
    inner_->enqueue(std::move(p), now);
  }
  PacketPtr dequeue(ispn::sim::Time now) override {
    Span s(log_, SpanId::kDequeue);
    return inner_->dequeue(now);
  }
  ispn::sim::Time next_eligible(ispn::sim::Time now) const override {
    return inner_->next_eligible(now);
  }
  void flush(const std::function<void(PacketPtr, ispn::sim::Time)>& sink,
             ispn::sim::Time now) override {
    inner_->flush(sink, now);
  }
  bool empty() const override { return inner_->empty(); }
  std::size_t packets() const override { return inner_->packets(); }
  ispn::sim::Bits backlog_bits() const override {
    return inner_->backlog_bits();
  }

 private:
  std::unique_ptr<ispn::sched::Scheduler> inner_;
  SpanLog* log_;
};

/// Counts a delivery, then hands the packet to `next` (if any) inside a
/// span: the data path's TcpSink or the ACK path's TcpSource.
class CountingSink final : public ispn::net::FlowSink {
 public:
  CountingSink(std::uint64_t* delivered, std::uint64_t* flow_delivered,
               SpanLog* log, SpanId id)
      : delivered_(delivered),
        flow_delivered_(flow_delivered),
        log_(log),
        id_(id) {}

  void set_next(ispn::net::FlowSink* next) { next_ = next; }

  void on_packet(PacketPtr p, ispn::sim::Time now) override {
    ++*delivered_;
    if (flow_delivered_ != nullptr) ++*flow_delivered_;
    if (next_ == nullptr) return;
    Span s(log_, id_);
    next_->on_packet(std::move(p), now);
  }

 private:
  std::uint64_t* delivered_;
  std::uint64_t* flow_delivered_;
  ispn::net::FlowSink* next_ = nullptr;
  SpanLog* log_;
  SpanId id_;
};

struct ReplicaFlow {
  ispn::core::IspnNetwork::FlowHandle handle;
  std::unique_ptr<ispn::traffic::Source> source;
  std::unique_ptr<ispn::traffic::TcpSink> tcp_sink;
  std::optional<CountingSink> sink;
  std::optional<CountingSink> ack_sink;
  std::uint64_t delivered = 0;  ///< data deliveries of this flow
  bool active = false;
};

class Replica {
 public:
  Replica(const Workload& w, SpanLog* spans)
      : w_(w),
        spec_(w.spec),
        spans_(spans),
        ispn_(spec_.network_config()),
        rng_(spec_.seed, kWorkloadStream) {}

  ReplicaRun run() {
    build();
    if (spec_.arrival_rate > 0) {
      schedule_arrival();
    } else {
      const double spread =
          spec_.avg_rate_pps * std::max(1, spec_.target_flows);
      for (int f = 0; f < spec_.target_flows; ++f) {
        open_flow(static_cast<double>(f) / spread);
      }
    }
    ispn::sim::Simulator& sim = ispn_.net().sim();
    ReplicaRun out;
    double horizon = 0;
    std::uint64_t pkts0 = 0;
    std::int64_t window0 = 0;
    bool in_window = false;
    while (horizon < spec_.run_seconds) {
      if (!in_window && horizon >= w_.warmup_s) {
        in_window = true;
        pkts0 = delivered_;
        window0 = now_ns();
      }
      horizon = std::min(spec_.run_seconds, horizon + kSlice);
      const std::uint64_t before = delivered_;
      {
        Span s(spans_, SpanId::kReplicaSlice);
        sim.run_until(horizon);
      }
      out.slice_pkts += delivered_ - before;
    }
    out.window_s = static_cast<double>(now_ns() - window0) / 1e9;
    out.window_pkts = delivered_ - pkts0;
    halted_ = true;
    for (ReplicaFlow& f : flows_) {
      if (f.active) f.source->stop();
    }
    sim.run();
    out.delivered = delivered_;
    out.events = sim.processed();
    out.offered = flows_.size();
    return out;
  }

 private:
  ispn::net::LinkSchedulerFactory factory() {
    ispn::net::LinkSchedulerFactory inner = ispn_.qos_link_factory();
    if (spans_ == nullptr) return inner;
    SpanLog* log = spans_;
    return [inner, log](NodeId from, NodeId to, ispn::sim::Rate rate)
               -> std::unique_ptr<ispn::sched::Scheduler> {
      return std::make_unique<TimedScheduler>(inner(from, to, rate), log);
    };
  }

  /// The fabric and its origin-destination pairs, as scenario/fabric.cc
  /// builds them for the two fabrics the benchmark uses.
  void build() {
    ispn::net::Network& net = ispn_.net();
    if (spec_.fabric == FabricKind::kFanInTree) {
      const std::vector<ispn::sim::Rate> rates(
          static_cast<std::size_t>(spec_.tree_depth - 1), spec_.link_rate);
      const auto topo = ispn::net::build_fan_tree(
          net, spec_.tree_depth, spec_.tree_width, rates, factory());
      for (const NodeId leaf : topo.leaf_hosts) {
        od_long_.emplace_back(leaf, topo.root_host);
      }
      od_short_ = od_long_;
    } else if (spec_.fabric == FabricKind::kParkingLot) {
      std::vector<ispn::sim::Rate> rates;
      for (int i = 0; i < spec_.parking_hops; ++i) {
        rates.push_back(spec_.link_rate * std::pow(spec_.parking_rate_step, i));
      }
      const auto topo = ispn::net::build_parking_lot(net, rates, factory());
      const auto& hosts = topo.hosts;
      for (std::size_t i = 0; i + 1 < hosts.size(); ++i) {
        od_short_.emplace_back(hosts[i], hosts[i + 1]);
        for (std::size_t j = i + 2; j < hosts.size(); ++j) {
          od_long_.emplace_back(hosts[i], hosts[j]);
        }
      }
    } else {
      throw std::invalid_argument("replica: unsupported fabric");
    }
    ispn_.instrument_links();
  }

  ispn::core::FlowSpec draw_spec() {
    ispn::core::FlowSpec fs;
    fs.flow = static_cast<FlowId>(flows_.size());
    const auto& pool =
        rng_.bernoulli(spec_.long_flow_fraction) ? od_long_ : od_short_;
    const auto& od = pool[rng_.below(pool.size())];
    fs.src = od.first;
    fs.dst = od.second;
    const ispn::sim::Rate avg_bps = spec_.avg_rate_pps * spec_.packet_bits;
    const double u = rng_.uniform();
    if (u < spec_.p_guaranteed) {
      fs.service = ServiceClass::kGuaranteed;
      fs.guaranteed = ispn::core::GuaranteedSpec{avg_bps * spec_.peak_factor};
    } else if (u < spec_.p_guaranteed + spec_.p_predicted) {
      fs.service = ServiceClass::kPredicted;
      fs.predicted = ispn::core::PredictedSpec{
          {avg_bps, ispn::sim::paper::kBucketPackets * spec_.packet_bits},
          spec_.target_delay,
          spec_.target_loss};
    } else {
      fs.service = ServiceClass::kDatagram;
    }
    return fs;
  }

  void schedule_arrival() {
    ispn::sim::Simulator& sim = ispn_.net().sim();
    const double next = sim.now() + rng_.exponential(1.0 / spec_.arrival_rate);
    if (next > spec_.run_seconds) return;
    sim.at(next, [this] {
      if (halted_) return;
      if (open_count_ < spec_.target_flows) open_flow(0.0);
      schedule_arrival();
    });
  }

  void open_flow(double start_offset) {
    const ispn::core::FlowSpec fs = draw_spec();
    flows_.emplace_back();
    ReplicaFlow& f = flows_.back();
    {
      Span s(spans_, SpanId::kOpenFlow);
      f.handle = ispn_.try_open_flow(fs);
    }
    if (!f.handle.commitment.admitted) return;
    f.active = true;
    ++open_count_;
    attach(f, start_offset);
    if (spec_.mean_hold > 0) {
      ispn::sim::Simulator& sim = ispn_.net().sim();
      const double t = sim.now() + rng_.exponential(spec_.mean_hold);
      if (t < spec_.run_seconds) {
        sim.at(t, [this, flow = fs.flow] {
          ReplicaFlow& rf = flows_[static_cast<std::size_t>(flow)];
          rf.source->stop();
          ispn_.net().sim().after(spec_.drain_grace,
                                  [this, flow] { try_close(flow); });
        });
      }
    }
  }

  void try_close(FlowId flow) {
    ReplicaFlow& f = flows_[static_cast<std::size_t>(flow)];
    if (!f.active) return;
    if (f.handle.spec.service == ServiceClass::kGuaranteed) {
      const ispn::net::FlowStats& st = ispn_.net().stats(flow);
      if (st.injected > f.delivered + st.net_drops) {
        ispn_.net().sim().after(spec_.drain_grace,
                                [this, flow] { try_close(flow); });
        return;
      }
    }
    {
      Span s(spans_, SpanId::kCloseFlow);
      ispn_.close_flow(f.handle);
    }
    f.active = false;
    --open_count_;
  }

  void attach(ReplicaFlow& f, double start_offset) {
    const ispn::core::FlowSpec& fs = f.handle.spec;
    ispn::net::Network& net = ispn_.net();
    ispn::net::Host& host = net.host(fs.src);
    ispn::net::FlowStats* stats = &net.stats(fs.flow);
    SpanLog* log = spans_;
    auto inject_via = [log](ispn::net::Host& h, std::uint32_t slot) {
      return [&h, slot, log](PacketPtr p) {
        p->sink_slot = slot;
        Span s(log, SpanId::kInject);
        h.inject(std::move(p));
      };
    };

    f.sink.emplace(&delivered_, &f.delivered, log, SpanId::kDataRx);
    const std::uint32_t data_slot =
        net.host(fs.dst).register_sink(fs.flow, &*f.sink);
    const auto emit = inject_via(host, data_slot);

    if (spec_.cc != CcKind::kOff && fs.service == ServiceClass::kDatagram) {
      ispn::traffic::TcpSource::Config tcfg;
      tcfg.packet_bits = spec_.packet_bits;
      tcfg.max_cwnd = spec_.cc_max_cwnd;
      tcfg.binary_feedback = spec_.binary_feedback;
      switch (spec_.cc) {
        case CcKind::kReno: tcfg.cc = ispn::traffic::CcAlgo::kReno; break;
        case CcKind::kBbr: tcfg.cc = ispn::traffic::CcAlgo::kBbr; break;
        case CcKind::kRack: tcfg.cc = ispn::traffic::CcAlgo::kRack; break;
        case CcKind::kMix:  // reno/bbr/rack by flow id, as the runner does
          tcfg.cc = static_cast<ispn::traffic::CcAlgo>(fs.flow % 3);
          break;
        case CcKind::kOff: break;  // unreachable
      }
      auto tcp = std::make_unique<ispn::traffic::TcpSource>(
          net.sim(), tcfg, fs.flow, fs.src, fs.dst, emit, stats);
      f.ack_sink.emplace(&delivered_, nullptr, log, SpanId::kAck);
      f.ack_sink->set_next(tcp.get());
      const std::uint32_t ack_slot = host.register_sink(fs.flow, &*f.ack_sink);
      f.tcp_sink = std::make_unique<ispn::traffic::TcpSink>(
          net.sim(), tcfg, fs.flow, fs.dst, fs.src,
          inject_via(net.host(fs.dst), ack_slot));
      f.tcp_sink->set_stats(stats);
      f.sink->set_next(f.tcp_sink.get());
      f.source = std::move(tcp);
    } else {
      std::optional<ispn::traffic::TokenBucketSpec> police;
      if (fs.service == ServiceClass::kGuaranteed) {
        police = ispn::traffic::TokenBucketSpec{
            fs.guaranteed->clock_rate,
            ispn::sim::paper::kBucketPackets * spec_.packet_bits};
      } else if (fs.service == ServiceClass::kPredicted) {
        police = fs.predicted->bucket;
      }
      const ispn::sim::Rng rng(
          spec_.seed, kSourceStreamBase + static_cast<std::uint64_t>(fs.flow));
      switch (spec_.source) {
        case SourceKind::kOnOff: {
          ispn::traffic::OnOffSource::Config cfg;
          cfg.avg_rate_pps = spec_.avg_rate_pps;
          cfg.peak_factor = spec_.peak_factor;
          cfg.packet_bits = spec_.packet_bits;
          f.source = std::make_unique<ispn::traffic::OnOffSource>(
              net.sim(), cfg, rng, fs.flow, fs.src, fs.dst, emit,
              stats, police);
          break;
        }
        case SourceKind::kCbr: {
          ispn::traffic::CbrSource::Config cfg;
          cfg.rate_pps = spec_.avg_rate_pps;
          cfg.packet_bits = spec_.packet_bits;
          f.source = std::make_unique<ispn::traffic::CbrSource>(
              net.sim(), cfg, fs.flow, fs.src, fs.dst, emit, stats,
              police);
          break;
        }
        case SourceKind::kPoisson: {
          ispn::traffic::PoissonSource::Config cfg;
          cfg.rate_pps = spec_.avg_rate_pps;
          cfg.packet_bits = spec_.packet_bits;
          f.source = std::make_unique<ispn::traffic::PoissonSource>(
              net.sim(), cfg, rng, fs.flow, fs.src, fs.dst, emit,
              stats, police);
          break;
        }
      }
    }
    const auto& hops = f.handle.commitment.priority_per_hop;
    f.source->set_service(
        fs.service, hops.empty() ? 0 : static_cast<std::uint8_t>(hops[0]));
    f.source->start(ispn_.net().sim().now() + start_offset);
  }

  const Workload& w_;
  const ispn::scenario::ScenarioSpec& spec_;
  SpanLog* spans_;
  ispn::core::IspnNetwork ispn_;
  ispn::sim::Rng rng_;
  std::vector<std::pair<NodeId, NodeId>> od_long_;
  std::vector<std::pair<NodeId, NodeId>> od_short_;
  std::deque<ReplicaFlow> flows_;  ///< indexed by FlowId; stable addresses
  std::uint64_t delivered_ = 0;
  int open_count_ = 0;
  bool halted_ = false;
};

}  // namespace

ReplicaRun run_replica(const Workload& w, SpanLog* spans) {
  return Replica(w, spans).run();
}

}  // namespace perfbench
