// perfbench: the ISPN simulator's benchmark of record.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--out-dir DIR]
//
// --trace 0 (timed): repeats the workload end to end for about S host
// seconds (at least kMinRuns runs, alternating two slice lengths) with no
// tracing and prints the end-to-end metrics over the runs.
// --trace 1 (traced): one traced live run, one untraced live run, and,
// on the classic-engine workloads, a replica fabric with per-packet spans;
// prints the per-layer metrics.  See README.md for every metric.
//
// Output: a fingerprint line, then (last line) one JSON object
// {"correct", "attempted", "failed", "metrics"}.  A run whose output
// checks fail counts as failed; `correct` is false when any run failed or
// the behaviour digests of the runs disagree.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "live.h"
#include "result.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kMinRuns = 3;
/// Set-up is sampled more often than whole runs: after each run, up to
/// this many extra construct + prepare() rounds, within a tenth of the
/// run's time.
constexpr int kMaxExtraSetups = 4;
/// Slice lengths (simulated seconds): runs alternate between them, so the
/// digest check also proves results do not depend on how a run is sliced.
constexpr double kSlices[2] = {0.02, 0.1};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string git_sha = "unknown";
  std::string out_dir = ".";
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_fingerprint(const Args& a) {
  std::printf(
      "{\"fingerprint\": {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": "
      "%d}}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      json_escape(a.git_sha).c_str(), json_escape(a.workload).c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const Metric& m : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// Timed mode: whole runs back to back.
Result timed(const Workload& w, double seconds) {
  Result res;
  std::vector<double> setup, wall, pps;
  std::uint64_t first_digest = 0;
  double peak_kb = 0;
  const std::int64_t start = now_ns();
  // Start another run only while it should end inside the budget.
  auto fits = [&] {
    const double spent = static_cast<double>(now_ns() - start) / 1e9;
    return spent + spent / static_cast<double>(res.attempted) <= seconds;
  };
  while (res.attempted < kMinRuns || fits()) {
    LiveOptions opt;
    opt.slice_s = kSlices[res.attempted % 2];
    const LiveRun run = run_live(w, opt);
    if (res.attempted == 0) {
      first_digest = run.digest;
      // One run's peak: later runs in this process reuse (and fragment)
      // the heap the first one left behind.
      peak_kb = peak_rss_kb();
    }
    ++res.attempted;
    std::string failure = run.failure;
    if (failure.empty() && run.digest != first_digest) {
      failure = "behaviour digest differs from the first run";
    }
    if (!failure.empty()) {
      ++res.failed;
      std::fprintf(stderr, "perfbench: run %llu failed: %s\n",
                   static_cast<unsigned long long>(res.attempted),
                   failure.c_str());
    }
    setup.push_back(run.setup_s);
    const std::int64_t extra0 = now_ns();
    for (int i = 0; i < kMaxExtraSetups &&
                    static_cast<double>(now_ns() - extra0) / 1e9 +
                            run.setup_s <
                        0.1 * run.wall_s;
         ++i) {
      setup.push_back(run_setup_only(w));
    }
    wall.push_back(run.wall_s);
    pps.push_back(run.pkts_per_s());
    std::fprintf(stderr,
                 "perfbench: %s run %llu: setup %.4f s, wall %.4f s, "
                 "%.0f pkt/s, digest %016llx\n",
                 w.name.c_str(), static_cast<unsigned long long>(res.attempted),
                 run.setup_s, run.wall_s, run.pkts_per_s(),
                 static_cast<unsigned long long>(run.digest));
  }
  res.correct = res.failed == 0;
  // Throughput and time to result are the best run's: interference from
  // other tenants only ever slows a run down, and on a shared machine it
  // comes in bursts of seconds, so the fastest of several runs varies far
  // less between invocations than their median does.  Set-up is sampled
  // often enough for its median.
  res.metrics = {
      {"pkts_per_s", *std::max_element(pps.begin(), pps.end()), "1/s"},
      {"wall_s", *std::min_element(wall.begin(), wall.end()), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_kb / 1024.0, "MB"},
  };
  std::fprintf(stderr,
               "perfbench: %llu runs (median %.0f pkt/s, %.4f s wall), "
               "%zu set-ups\n",
               static_cast<unsigned long long>(res.attempted), median(pps),
               median(wall), setup.size());
  return res;
}

int usage() {
  std::fputs("usage: perfbench --workload NAME --seed N --seconds S "
             "--trace 0|1 [--git-sha SHA] [--out-dir DIR]\n",
             stderr);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") args.workload = value;
      else if (key == "--seed") args.seed = std::stoull(value);
      else if (key == "--seconds") args.seconds = std::stod(value);
      else if (key == "--trace") args.trace = std::stoi(value);
      else if (key == "--git-sha") args.git_sha = value;
      else if (key == "--out-dir") args.out_dir = value;
      else return usage();
    }
    if (argc % 2 == 0 || args.seconds <= 0 ||
        (args.trace != 0 && args.trace != 1)) {
      return usage();
    }
    const Workload w = make_workload(args.workload, args.seed);
    print_fingerprint(args);
    std::fflush(stdout);
    const Result r = args.trace == 0 ? timed(w, args.seconds)
                                     : traced(w, args.out_dir);
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
