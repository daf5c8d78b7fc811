// WFQ unit and property tests, including the Parekh–Gallager bound.

#include "sched/wfq.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "net/topology.h"
#include "sched_test_util.h"
#include "sim/random.h"
#include "traffic/cbr_source.h"
#include "traffic/greedy_source.h"

namespace ispn::sched {
namespace {

using sched_test::offer;
using sched_test::pkt;

WfqScheduler::Config cfg(double link_rate = 1000.0,
                         std::size_t capacity = 1000,
                         double default_weight = 1.0) {
  return {link_rate, capacity, default_weight};
}

// 200 flows backlogged at once put both of WFQ's orderings (head finish
// tags and fluid departure epochs) far past OrderIndex's heap -> calendar
// switch at 48, and draining takes them back below 12 to the heap.  With
// every packet arriving at t=0 the expected behaviour has a closed form:
// finish tags are cumulative size/weight sums, packets depart in (finish
// tag, arrival) order, and V(t) is the batch GPS clock, whose slope
// C / (sum of backlogged weights) steps at each flow's last finish tag.
TEST(Wfq, ManyBackloggedFlowsDepartByFinishTagAndFollowGps) {
  constexpr double kRate = 1e6;
  constexpr int kFlows = 200;
  WfqScheduler q(cfg(kRate, 100000));
  struct Tag {
    double finish;
    std::uint64_t order;
    net::FlowId flow;
    std::uint64_t seq;
  };
  std::vector<Tag> expected;
  std::map<double, double> weight_ending_at;  // last finish tag -> weight
  std::uint64_t order = 0;
  for (int f = 0; f < kFlows; ++f) {
    const double w = 1.0 + f % 7;
    q.add_flow(f, w);
    double finish = 0;
    for (int k = 0; k <= f % 4; ++k) {
      const double bits = 1000.0 + 100.0 * ((f * 3 + k) % 9);
      finish += bits * (1.0 / w);  // S = max(V(0) = 0, last finish)
      expected.push_back({finish, order++, static_cast<net::FlowId>(f),
                          static_cast<std::uint64_t>(k)});
      EXPECT_TRUE(offer(q, pkt(f, k, 0.0, bits), 0.0).empty());
    }
    weight_ending_at[finish] += w;
  }
  std::sort(expected.begin(), expected.end(),
            [](const Tag& a, const Tag& b) {
              return a.finish != b.finish ? a.finish < b.finish
                                          : a.order < b.order;
            });
  // Batch GPS: V rises at C / (weight still backlogged) until each last
  // finish tag, where that flow's weight leaves the sum.
  const auto gps = [&](double t) {
    double v = 0;
    double at = 0;
    double backlogged = 0;
    for (const auto& [end, w] : weight_ending_at) backlogged += w;
    for (const auto& [end, w] : weight_ending_at) {
      const double reach = at + (end - v) * backlogged / kRate;
      if (t < reach) return v + (t - at) * kRate / backlogged;
      v = end;
      at = reach;
      backlogged -= w;
    }
    return v;  // fluid system idle: V frozen
  };
  double now = 0;
  for (const Tag& want : expected) {
    auto p = q.dequeue(now);
    ASSERT_NE(p, nullptr);
    ASSERT_EQ(p->flow, want.flow) << "finish tag " << want.finish;
    ASSERT_EQ(p->seq, want.seq) << "finish tag " << want.finish;
    now += p->size_bits / kRate;
    const double v = q.virtual_time(now);
    EXPECT_NEAR(v, gps(now), 1e-9 * std::max(1.0, v)) << "t=" << now;
  }
  EXPECT_TRUE(q.empty());
}

TEST(Wfq, AcceptsPacketsWithoutAFlowId) {
  // Packets whose flow was never assigned (kNoFlow = -1) share the
  // anonymous slot-0 bucket; they must queue and drain like any flow.
  WfqScheduler q(cfg());
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto p = pkt(net::kNoFlow, i, 0.0);
    ASSERT_TRUE(offer(q, std::move(p), 0.0).empty());
  }
  ASSERT_TRUE(offer(q, pkt(1, 0, 0.0), 0.0).empty());
  EXPECT_EQ(q.packets(), 4u);
  std::uint64_t drained = 0;
  while (!q.empty()) {
    ASSERT_NE(q.dequeue(0.0), nullptr);
    ++drained;
  }
  EXPECT_EQ(drained, 4u);
}

TEST(Wfq, EmptyDequeueReturnsNull) {
  WfqScheduler q(cfg());
  EXPECT_EQ(q.dequeue(0.0), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(Wfq, SingleFlowIsFifo) {
  WfqScheduler q(cfg());
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(offer(q, pkt(0, i, 0.0), 0.0).empty());
  }
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(q.dequeue(0.0)->seq, i);
}

TEST(Wfq, EqualWeightsAlternateBetweenBackloggedFlows) {
  WfqScheduler q(cfg());
  // Two flows, each with 3 packets arriving at t=0; equal weights mean
  // finish tags interleave 1:1.
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(offer(q, pkt(1, i, 0.0), 0.0).empty());
    ASSERT_TRUE(offer(q, pkt(2, i, 0.0), 0.0).empty());
  }
  std::vector<net::FlowId> order;
  while (!q.empty()) order.push_back(q.dequeue(0.0)->flow);
  EXPECT_EQ(order, (std::vector<net::FlowId>{1, 2, 1, 2, 1, 2}));
}

TEST(Wfq, WeightsSkewService) {
  WfqScheduler q(cfg(1000.0, 1000, 1.0));
  q.add_flow(1, 3.0);
  q.add_flow(2, 1.0);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(offer(q, pkt(1, i, 0.0), 0.0).empty());
    ASSERT_TRUE(offer(q, pkt(2, i, 0.0), 0.0).empty());
  }
  // In the first 8 departures, flow 1 (weight 3) should get ~6.
  int flow1 = 0;
  for (int i = 0; i < 8; ++i) {
    if (q.dequeue(0.0)->flow == 1) ++flow1;
  }
  EXPECT_EQ(flow1, 6);
}

TEST(Wfq, VirtualTimeFrozenWhenIdle) {
  WfqScheduler q(cfg());
  const double v0 = q.virtual_time(0.0);
  EXPECT_DOUBLE_EQ(q.virtual_time(100.0), v0);
}

TEST(Wfq, VirtualTimeAdvancesWithBacklog) {
  WfqScheduler q(cfg(1000.0));
  ASSERT_TRUE(offer(q, pkt(1, 0, 0.0, 1000.0), 0.0).empty());
  // One backlogged flow of weight 1: slope = 1000/1 = 1000 per second,
  // until the fluid finishes the 1000-bit packet at V = 1000 (t = 1s).
  EXPECT_NEAR(q.virtual_time(0.5), 500.0, 1e-9);
  EXPECT_NEAR(q.virtual_time(2.0), 1000.0, 1e-9);  // frozen after drain
}

TEST(Wfq, FluidBacklogClearsAtFinishTag) {
  WfqScheduler q(cfg(1000.0));
  ASSERT_TRUE(offer(q, pkt(1, 0, 0.0, 1000.0), 0.0).empty());
  EXPECT_GT(q.active_weight(), 0.0);
  (void)q.virtual_time(1.5);
  EXPECT_DOUBLE_EQ(q.active_weight(), 0.0);
}

TEST(Wfq, LateArrivalGetsVirtualTimeStart) {
  WfqScheduler q(cfg(1000.0));
  // Flow 1 backlogged from t=0; flow 2 arrives at t=0.5 and should get
  // S = V(0.5), not 0 — i.e. it is not penalised for past idleness and
  // does not leapfrog either.
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(offer(q, pkt(1, i, 0.0, 1000.0), 0.0).empty());
  }
  ASSERT_TRUE(offer(q, pkt(2, 0, 0.5, 1000.0), 0.5).empty());
  // V(0.5) = 500; flow 2's tag = 1500.  Flow 1 tags: 1000, 2000, ...
  // Departure order: f1(1000), f2(1500), f1(2000), ...
  EXPECT_EQ(q.dequeue(0.5)->flow, 1);
  EXPECT_EQ(q.dequeue(0.5)->flow, 2);
  EXPECT_EQ(q.dequeue(0.5)->flow, 1);
}

TEST(Wfq, SingleFlowOverflowDropsOwnNewest) {
  WfqScheduler q(cfg(1000.0, 2));
  ASSERT_TRUE(offer(q, pkt(1, 0, 0.0), 0.0).empty());
  ASSERT_TRUE(offer(q, pkt(1, 1, 0.0), 0.0).empty());
  auto dropped = offer(q, pkt(1, 2, 0.0), 0.0);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0]->seq, 2u);
}

TEST(Wfq, OverflowDropsFromLongestQueue) {
  // DKS89 buffer policy: the flooding flow loses its newest packet, not
  // the conforming arrival.
  WfqScheduler q(cfg(1000.0, 4));
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(offer(q, pkt(2, i, 0.0), 0.0).empty());
  }
  auto dropped = offer(q, pkt(1, 0, 0.0), 0.0);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0]->flow, 2);
  EXPECT_EQ(dropped[0]->seq, 3u);  // flow 2's newest
  // The conforming packet survives and departs promptly (flow 1 head).
  EXPECT_EQ(q.packets(), 4u);
  bool saw_flow1 = false;
  while (!q.empty()) {
    if (q.dequeue(0.0)->flow == 1) saw_flow1 = true;
  }
  EXPECT_TRUE(saw_flow1);
}

TEST(Wfq, OverflowKeepsHeadSetConsistent) {
  // Evicting the only packet of the longest flow must remove its head
  // entry; churn then drain without corruption.
  WfqScheduler q(cfg(1000.0, 1));
  ASSERT_TRUE(offer(q, pkt(1, 0, 0.0), 0.0).empty());
  auto dropped = offer(q, pkt(2, 0, 0.0), 0.0);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(q.packets(), 1u);
  auto p = q.dequeue(0.0);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(Wfq, WeightLookup) {
  WfqScheduler q(cfg(1000.0, 10, 2.5));
  q.add_flow(7, 4.0);
  EXPECT_DOUBLE_EQ(q.weight(7), 4.0);
  EXPECT_DOUBLE_EQ(q.weight(8), 2.5);  // default
}

TEST(Wfq, PacketsAndBitsAccounting) {
  WfqScheduler q(cfg());
  ASSERT_TRUE(offer(q, pkt(1, 0, 0.0, 700.0), 0.0).empty());
  ASSERT_TRUE(offer(q, pkt(2, 0, 0.0, 300.0), 0.0).empty());
  EXPECT_EQ(q.packets(), 2u);
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 1000.0);
  (void)q.dequeue(0.0);
  (void)q.dequeue(0.0);
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 0.0);
}

// ------------------------------------------------------------ isolation --
// A conforming flow's service is unaffected by a misbehaving flow: WFQ's
// core promise (paper §4).  Driven end-to-end through a real simulated
// link (dumbbell topology).

TEST(Wfq, IsolationFromMisbehavingFlow) {
  net::Network net;
  WfqScheduler* sched = nullptr;
  const auto topo = net::build_dumbbell(net, 1e6, [&] {
    auto q = std::make_unique<WfqScheduler>(
        WfqScheduler::Config{1e6, 100000, 1.0});
    sched = q.get();
    return q;
  });
  ASSERT_NE(sched, nullptr);
  sched->add_flow(1, 5e5);
  sched->add_flow(2, 5e5);

  net::Host& src = net.host(topo.left_host);
  auto emit = [&src](net::PacketPtr p) { src.inject(std::move(p)); };

  // Flow 1: CBR at 250 kb/s — half its 500 kb/s entitlement.
  traffic::CbrSource good(net.sim(), {.rate_pps = 250.0, .packet_bits = 1000},
                          1, topo.left_host, topo.right_host, emit,
                          &net.stats(1));
  // Flow 2 misbehaves: CBR at 2 Mb/s, double the whole link.
  traffic::CbrSource flood(net.sim(), {.rate_pps = 2000.0, .packet_bits = 1000},
                           2, topo.left_host, topo.right_host, emit,
                           &net.stats(2));
  net.attach_stats_sink(1, topo.right_host);
  net.attach_stats_sink(2, topo.right_host);
  good.start(0);
  flood.start(0);
  net.sim().run_until(20.0);

  // Entitled to 500 kb/s: 1000-bit packets arriving at 250/s never queue
  // more than ~2 packet services behind the flood.
  EXPECT_GT(net.stats(1).received, 4000u);
  EXPECT_LT(net.stats(1).queueing_delay.max(), 0.005);
  // The flood itself suffers (it gets ~750 kb/s of a 1 Mb/s link).
  EXPECT_GT(net.stats(2).queueing_delay.max(), 0.05);
}

// ------------------------------------------- Parekh–Gallager bound sweep --
// Greedy conforming source vs. saturating cross traffic on one link: the
// flow's queueing delay must stay below b/r + p/r + p/C (fluid bound + one
// packet quantum + store-and-forward).

class PgBoundSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PgBoundSweep, GreedySourceStaysUnderBound) {
  const auto [rate_share, depth_pkts] = GetParam();
  const double link = 1e6;
  const double r = rate_share * link;
  const double b = depth_pkts * 1000.0;

  net::Network net;
  WfqScheduler* sched = nullptr;
  const auto topo = net::build_dumbbell(net, link, [&] {
    auto q = std::make_unique<WfqScheduler>(
        WfqScheduler::Config{link, 100000, link - r});
    sched = q.get();
    return q;
  });
  sched->add_flow(1, r);

  net::Host& src = net.host(topo.left_host);
  auto emit = [&src](net::PacketPtr p) { src.inject(std::move(p)); };

  traffic::GreedySource greedy(net.sim(),
                               {.bucket = {r, b}, .packet_bits = 1000.0,
                                .limit = 0},
                               1, topo.left_host, topo.right_host, emit,
                               &net.stats(1));
  // Cross traffic saturates the remainder of the link (and then some).
  traffic::CbrSource cross(net.sim(), {.rate_pps = 1200.0, .packet_bits = 1000},
                           2, topo.left_host, topo.right_host, emit,
                           &net.stats(2));
  net.attach_stats_sink(1, topo.right_host);
  net.attach_stats_sink(2, topo.right_host);
  greedy.start(0);
  cross.start(0);
  net.sim().run_until(30.0);

  // Queueing delay excludes the own transmission time; allow the packet
  // quantum p/r plus in-service packet p/C on top of the fluid b/r.
  const double bound = b / r + 1000.0 / r + 1000.0 / link;
  EXPECT_GT(net.stats(1).received, 100u);
  EXPECT_LE(net.stats(1).queueing_delay.max(), bound + 1e-9)
      << "r=" << r << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndDepths, PgBoundSweep,
    ::testing::Combine(::testing::Values(0.1, 0.25, 0.5),
                       ::testing::Values(1.0, 5.0, 20.0)));

}  // namespace
}  // namespace ispn::sched
