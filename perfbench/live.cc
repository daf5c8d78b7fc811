#include "live.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>

#include "alloc_count.h"
#include "scenario/runner.h"

namespace perfbench {

namespace {

using ispn::scenario::AdmissionDecision;
using ispn::scenario::ScenarioReport;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// The first failed output check, or "" when every check passes.
std::string check(const Workload& w, const ScenarioReport& r) {
  if (!r.conserved()) return "packet conservation violated";
  if (r.invariant_violations != 0) {
    return std::to_string(r.invariant_violations) + " invariant violations";
  }
  if (r.delivered == 0) return "nothing delivered";
  if (w.check_bounds) {
    for (const auto& f : r.flows) {
      if (f.admitted && f.service == ispn::net::ServiceClass::kGuaranteed &&
          f.max_delay > f.bound) {
        return "guaranteed flow " + std::to_string(f.flow) +
               " exceeded its bound";
      }
    }
  }
  return "";
}

}  // namespace

std::uint64_t digest(const ScenarioReport& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(r.decision_hash());
  for (const std::uint64_t v :
       {r.generated, r.source_drops, r.injected, r.delivered, r.net_drops,
        r.failed_link_drops, r.node_failure_drops, r.fault_drops,
        r.queued_end, r.unclaimed, r.events}) {
    mix(v);
  }
  for (const auto& c : r.classes) mix(c.delivered);
  return h;
}

LiveRun run_live(const Workload& w, const LiveOptions& opt) {
  LiveRun out;
  const double rss_before = rss_kb();
  const std::int64_t t0 = now_ns();
  std::unique_ptr<ispn::scenario::ScenarioRunner> runner;
  {
    Span s(opt.spans, SpanId::kConstruct);
    runner = std::make_unique<ispn::scenario::ScenarioRunner>(w.spec);
  }
  if (opt.tracer != nullptr) runner->set_tracer(opt.tracer);
  {
    Span s(opt.spans, SpanId::kPrepare);
    runner->prepare();
  }
  out.setup_s = seconds_since(t0);
  out.batch_flows = runner->decisions().size();
  if (runner->engine() != nullptr && opt.sync != nullptr) {
    runner->engine()->set_sync(opt.sync);
  }

  std::size_t seen_decisions = runner->decisions().size();
  const double end = w.spec.run_seconds;
  // Sized up front: the window's allocation count is the simulator's.
  const auto slices = static_cast<std::size_t>(end / opt.slice_s) + 2;
  out.slice_ms.reserve(slices);
  out.slice_rerouted.reserve(slices);
  double horizon = 0;
  std::uint64_t pkts0 = 0, events0 = 0, allocs0 = 0;
  std::int64_t window0 = 0;
  bool in_window = false;
  while (horizon < end) {
    if (!in_window && horizon >= w.warmup_s) {
      in_window = true;
      pkts0 = runner->delivered();
      events0 = runner->events_processed();
      allocs0 = allocation_count();
      window0 = now_ns();
    }
    horizon = std::min(end, horizon + opt.slice_s);
    const std::int64_t s0 = now_ns();
    {
      Span s(opt.spans, SpanId::kSlice);
      runner->advance(horizon);
    }
    out.slice_ms.push_back(static_cast<double>(now_ns() - s0) / 1e6);
    bool rerouted = false;
    const auto& decisions = runner->decisions();
    for (; seen_decisions < decisions.size(); ++seen_decisions) {
      const auto kind = decisions[seen_decisions].kind;
      rerouted = rerouted || kind == AdmissionDecision::Kind::kRerouted ||
                 kind == AdmissionDecision::Kind::kDegraded;
    }
    out.slice_rerouted.push_back(rerouted);
    if (opt.after_slice) opt.after_slice();
  }
  out.window_s = seconds_since(window0);
  out.window_pkts = runner->delivered() - pkts0;
  out.window_events = runner->events_processed() - events0;
  out.window_allocs = allocation_count() - allocs0;
  out.rss_growth_kb = rss_kb() - rss_before;

  const std::int64_t f0 = now_ns();
  {
    Span s(opt.spans, SpanId::kFinish);
    out.report = runner->finish();
  }
  out.finish_s = seconds_since(f0);
  out.wall_s = seconds_since(t0);
  if (opt.after_slice) opt.after_slice();
  if (runner->engine() != nullptr) out.rounds = runner->engine()->rounds();
  out.digest = digest(out.report);
  out.failure = check(w, out.report);
  return out;
}

double run_setup_only(const Workload& w) {
  const std::int64_t t0 = now_ns();
  ispn::scenario::ScenarioRunner runner(w.spec);
  runner.prepare();
  return seconds_since(t0);
}

double rss_kb() {
  std::ifstream statm("/proc/self/statm");
  double size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace perfbench
