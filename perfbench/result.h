// What one benchmark invocation prints as its last line.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = false;
  std::uint64_t attempted = 0;  ///< runs made
  std::uint64_t failed = 0;     ///< runs whose output checks failed
  std::vector<Metric> metrics;
};

}  // namespace perfbench
