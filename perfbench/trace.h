// Traced mode: per-layer metrics for one workload.

#pragma once

#include <string>

#include "result.h"
#include "workloads.h"

namespace perfbench {

/// Runs the workload traced and untraced (and, on classic-engine
/// workloads, a replica fabric with per-packet spans), checks that every
/// run's behaviour digest agrees, and returns the per-layer metrics.
/// The kept spans are written to `out_dir` as Chrome trace-event JSON.
[[nodiscard]] Result traced(const Workload& w, const std::string& out_dir);

}  // namespace perfbench
