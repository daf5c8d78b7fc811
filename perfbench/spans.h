// In-memory span log for the traced run.
//
// Spans are recorded from the benchmark's own files, around calls into
// the simulator's public entry points; the simulator itself is not
// instrumented.  Every span is aggregated by name (calls, total time,
// time covered by child spans, so self time = total - child).  Coarse
// spans (runner phases, shard rounds, flow set-up and teardown) are also
// kept one by one, with their parent, and written out as Chrome
// trace-event JSON when the benchmark ends.  Per-packet spans are only
// aggregated: millions of them would not fit a bounded log.
//
// Single-threaded: spans open and close on the calling thread (the
// sharded engine runs its rounds' control phase there too).

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanId : int {
  // Runner level (live run).
  kConstruct,
  kPrepare,
  kSlice,
  kFinish,
  kRound,
  // Replica fabric.
  kReplicaSlice,
  kOpenFlow,
  kCloseFlow,
  kInject,
  kEnqueue,
  kDequeue,
  kAck,
  kDataRx,
  kCount,
};

[[nodiscard]] const char* span_name(SpanId id);

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Agg {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;  ///< covered by spans opened inside it
    std::uint64_t child_calls = 0;  ///< spans closed directly inside it
  };

  SpanLog();

  void begin(SpanId id);
  void end();
  /// Records a span measured elsewhere (shard rounds), as a child of the
  /// innermost open span.
  void add(SpanId id, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] const Agg& agg(SpanId id) const {
    return aggs_[static_cast<std::size_t>(id)];
  }
  /// Per-call durations (ns) of a coarse span, in call order.
  [[nodiscard]] std::vector<double> durations(SpanId id) const;

  /// Cost of one clock read (ns), measured at construction.  Each span
  /// pays about one read inside its own interval and one in its parent's.
  [[nodiscard]] double clock_ns() const { return clock_ns_; }

  /// Mean self time per call (ns): total minus children, less the clock
  /// reads the span and its direct children put inside the interval.
  /// 0 when the span never ran.
  [[nodiscard]] double self_ns_per_call(SpanId id) const;
  /// Total self time (ns), corrected the same way.
  [[nodiscard]] double self_ns(SpanId id) const;

  /// Writes the individually kept spans as Chrome trace-event JSON.
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Frame {
    SpanId id;
    std::int64_t start;
    std::int64_t child;
    std::uint64_t child_calls;
    std::int32_t kept;  ///< index into kept_, -1 for aggregate-only spans
  };
  struct Kept {
    SpanId id;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;  ///< index into kept_, -1 at top level
  };

  [[nodiscard]] static bool coarse(SpanId id) {
    return id <= SpanId::kRound || id == SpanId::kReplicaSlice ||
           id == SpanId::kOpenFlow || id == SpanId::kCloseFlow;
  }
  [[nodiscard]] std::int32_t keep(SpanId id, std::int64_t start);

  std::array<Agg, static_cast<std::size_t>(SpanId::kCount)> aggs_{};
  std::vector<Frame> stack_;
  std::vector<Kept> kept_;
  double clock_ns_ = 0;
};

/// Opens a span for the enclosing scope; no-op when `log` is null.
class Span {
 public:
  Span(SpanLog* log, SpanId id) : log_(log) {
    if (log_ != nullptr) log_->begin(id);
  }
  ~Span() {
    if (log_ != nullptr) log_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace perfbench
