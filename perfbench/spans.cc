#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {
/// Bound on individually kept spans (32 bytes each).
constexpr std::size_t kMaxKept = 1u << 20;
/// Keeps the calibration reads from being optimised away.
volatile std::int64_t g_clock_sink = 0;
}  // namespace

const char* span_name(SpanId id) {
  switch (id) {
    case SpanId::kConstruct: return "scenario.construct";
    case SpanId::kPrepare: return "scenario.prepare";
    case SpanId::kSlice: return "scenario.advance";
    case SpanId::kFinish: return "scenario.finish";
    case SpanId::kRound: return "shard.round";
    case SpanId::kReplicaSlice: return "replica.run_until";
    case SpanId::kOpenFlow: return "core.try_open_flow";
    case SpanId::kCloseFlow: return "core.close_flow";
    case SpanId::kInject: return "net.Host::inject";
    case SpanId::kEnqueue: return "sched.enqueue";
    case SpanId::kDequeue: return "sched.dequeue";
    case SpanId::kAck: return "traffic.TcpSource::on_packet";
    case SpanId::kDataRx: return "traffic.TcpSink::on_packet";
    case SpanId::kCount: break;
  }
  return "?";
}

SpanLog::SpanLog() {
  stack_.reserve(64);
  // Calibrate the clock: the cheapest of a few batches of reads.
  constexpr int kReads = 4096;
  double best = 1e9;
  for (int batch = 0; batch < 8; ++batch) {
    const std::int64_t t0 = now_ns();
    std::int64_t sink = 0;
    for (int i = 0; i < kReads; ++i) sink += now_ns();
    const std::int64_t t1 = now_ns();
    g_clock_sink = sink;
    best = std::min(best, static_cast<double>(t1 - t0) / kReads);
  }
  clock_ns_ = best;
}

std::int32_t SpanLog::keep(SpanId id, std::int64_t start) {
  if (!coarse(id) || kept_.size() >= kMaxKept) return -1;
  std::int32_t parent = -1;
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->kept >= 0) {
      parent = it->kept;
      break;
    }
  }
  kept_.push_back(Kept{id, start, start, parent});
  return static_cast<std::int32_t>(kept_.size() - 1);
}

void SpanLog::begin(SpanId id) {
  const std::int64_t t = now_ns();
  stack_.push_back(Frame{id, t, 0, 0, keep(id, t)});
}

void SpanLog::end() {
  const std::int64_t t = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - f.start;
  Agg& a = aggs_[static_cast<std::size_t>(f.id)];
  ++a.calls;
  a.total_ns += dur;
  a.child_ns += f.child;
  a.child_calls += f.child_calls;
  if (!stack_.empty()) {
    stack_.back().child += dur;
    ++stack_.back().child_calls;
  }
  if (f.kept >= 0) kept_[static_cast<std::size_t>(f.kept)].end = t;
}

void SpanLog::add(SpanId id, std::int64_t start_ns, std::int64_t end_ns) {
  const std::int32_t k = keep(id, start_ns);
  if (k >= 0) kept_[static_cast<std::size_t>(k)].end = end_ns;
  Agg& a = aggs_[static_cast<std::size_t>(id)];
  ++a.calls;
  a.total_ns += end_ns - start_ns;
  if (!stack_.empty()) {
    stack_.back().child += end_ns - start_ns;
    ++stack_.back().child_calls;
  }
}

double SpanLog::self_ns(SpanId id) const {
  const Agg& a = agg(id);
  const double raw = static_cast<double>(a.total_ns - a.child_ns);
  const double reads = static_cast<double>(a.calls + a.child_calls);
  return std::max(0.0, raw - reads * clock_ns_);
}

double SpanLog::self_ns_per_call(SpanId id) const {
  const Agg& a = agg(id);
  return a.calls == 0 ? 0 : self_ns(id) / static_cast<double>(a.calls);
}

std::vector<double> SpanLog::durations(SpanId id) const {
  std::vector<double> out;
  for (const Kept& k : kept_) {
    if (k.id == id) out.push_back(static_cast<double>(k.end - k.start));
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = kept_.empty() ? 0 : kept_.front().start;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    // Per-flow set-up and teardown spans only feed the aggregates: a
    // quarter-million of them would swamp the file.
    if (k.id == SpanId::kOpenFlow || k.id == SpanId::kCloseFlow) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 first ? "" : ",", span_name(k.id),
                 static_cast<double>(k.start - t0) / 1e3,
                 static_cast<double>(k.end - k.start) / 1e3, i, k.parent);
    first = false;
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
