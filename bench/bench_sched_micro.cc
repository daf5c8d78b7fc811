// Per-packet scheduling cost (paper §1: the scheduling algorithm "must be
// executed for every packet [so] it must not be so complex as to effect
// overall network performance").  Self-timed microbenchmarks of one
// enqueue+dequeue cycle under steady backlog for each discipline, appended
// as a run to BENCH_sched_micro.json (see bench/common.h).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "sched/fifo.h"
#include "sched/fifo_plus.h"
#include "sched/priority.h"
#include "sched/unified.h"
#include "sched/wfq.h"

namespace {

using namespace ispn;

net::PacketPtr make(net::FlowId flow, std::uint64_t seq, double now,
                    net::ServiceClass service, std::uint8_t priority = 0) {
  auto p = net::make_packet(flow, seq, 0, 1, now);
  p->enqueued_at = now;
  p->service = service;
  p->priority = priority;
  return p;
}

/// Preloads `backlog` packets across `flows` flows, then measures one
/// enqueue + one dequeue per cycle at steady state.
template <typename MakeSched>
void run_cycle(bench::JsonReporter& report, const std::string& name,
               MakeSched make_sched, int flows, net::ServiceClass service) {
  auto sched = make_sched();
  const int backlog = 64;
  std::uint64_t seq = 0;
  double now = 0;
  for (int i = 0; i < backlog; ++i) {
    sched->enqueue(make(static_cast<net::FlowId>(i % flows), seq++, now,
                        service, static_cast<std::uint8_t>(i % 2)),
                   now);
  }
  std::uint64_t live = 0;  // defeat whole-loop elision
  const auto r = bench::time_loop([&] {
    now += 1e-3;
    sched->enqueue(
        make(static_cast<net::FlowId>(seq % static_cast<std::uint64_t>(flows)),
             seq, now, service, static_cast<std::uint8_t>(seq % 2)),
        now);
    ++seq;
    auto p = sched->dequeue(now);
    if (p != nullptr) ++live;
  });
  if (live == 0) std::printf("(!) nothing dequeued in %s\n", name.c_str());
  report.add(name, "flows=" + std::to_string(flows), r);
}

void bench_mixed(bench::JsonReporter& report) {
  // Realistic Table-3 port mix: 3 guaranteed flows + 2 predicted classes
  // + datagram, alternating arrivals.
  auto sched = std::make_unique<sched::UnifiedScheduler>(
      sched::UnifiedScheduler::Config{1e6, 100000, 2, 1.0 / 4096.0, true});
  for (int f = 0; f < 3; ++f) sched->add_guaranteed(f, 1.7e5);
  for (int f = 3; f < 10; ++f) sched->set_predicted_priority(f, f % 2);
  std::uint64_t seq = 0;
  double now = 0;
  auto next = [&](std::uint64_t i) {
    const int f = static_cast<int>(i % 11);
    if (f < 3) return make(f, i, now, net::ServiceClass::kGuaranteed);
    if (f < 10) {
      return make(f, i, now, net::ServiceClass::kPredicted,
                  static_cast<std::uint8_t>(f % 2));
    }
    return make(f, i, now, net::ServiceClass::kDatagram);
  };
  for (int i = 0; i < 64; ++i) {
    sched->enqueue(next(seq), now);
    ++seq;
  }
  std::uint64_t live = 0;
  const auto r = bench::time_loop([&] {
    now += 1e-3;
    sched->enqueue(next(seq), now);
    ++seq;
    auto p = sched->dequeue(now);
    if (p != nullptr) ++live;
  });
  report.add("unified_mixed", "flows=11", r);
}

}  // namespace

int main() {
  bench::header("sched_micro: per-packet enqueue+dequeue cost");
  bench::JsonReporter report("sched_micro");

  for (int flows : {1, 10, 100}) {
    run_cycle(
        report, "fifo",
        [] { return std::make_unique<sched::FifoScheduler>(100000); }, flows,
        net::ServiceClass::kPredicted);
  }
  for (int flows : {1, 10, 100}) {
    run_cycle(
        report, "fifo_plus",
        [] {
          return std::make_unique<sched::FifoPlusScheduler>(
              sched::FifoPlusScheduler::Config{100000, 1.0 / 4096.0, true});
        },
        flows, net::ServiceClass::kPredicted);
  }
  for (int flows : {1, 10, 100}) {
    run_cycle(
        report, "wfq",
        [] {
          return std::make_unique<sched::WfqScheduler>(
              sched::WfqScheduler::Config{1e6, 100000, 1e4});
        },
        flows, net::ServiceClass::kPredicted);
  }
  run_cycle(
      report, "priority_over_fifo",
      [] {
        std::vector<std::unique_ptr<sched::Scheduler>> children;
        children.push_back(std::make_unique<sched::FifoScheduler>(100000));
        children.push_back(std::make_unique<sched::FifoScheduler>(100000));
        return std::make_unique<sched::PriorityScheduler>(std::move(children));
      },
      10, net::ServiceClass::kPredicted);
  for (int flows : {1, 10, 100}) {
    run_cycle(
        report, "unified_predicted",
        [] {
          return std::make_unique<sched::UnifiedScheduler>(
              sched::UnifiedScheduler::Config{1e6, 100000, 2, 1.0 / 4096.0,
                                              true});
        },
        flows, net::ServiceClass::kPredicted);
  }
  for (int flows : {1, 10, 100}) {
    run_cycle(
        report, "unified_guaranteed",
        [flows] {
          auto s = std::make_unique<sched::UnifiedScheduler>(
              sched::UnifiedScheduler::Config{1e6, 100000, 2, 1.0 / 4096.0,
                                              true});
          for (int f = 0; f < flows; ++f) {
            s->add_guaranteed(f, 1e6 / (2.0 * flows));
          }
          return s;
        },
        flows, net::ServiceClass::kGuaranteed);
  }
  bench_mixed(report);

  const std::string path = report.write();
  std::printf("trajectory appended to %s\n", path.c_str());
  return 0;
}
