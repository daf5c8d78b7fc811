// Global allocation counter for the benchmark binary (mem.allocs_per_kpkt).
//
// alloc_count.cc replaces the global operator new/delete with counting
// forwarders to malloc/free, so the benchmark can report how many heap
// allocations the simulator makes inside a measured window.

#pragma once

#include <cstdint>

namespace perfbench {

/// Number of global operator new calls so far, from every thread.
std::uint64_t allocation_count();

}  // namespace perfbench
