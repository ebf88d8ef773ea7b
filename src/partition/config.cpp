#include "partition/config.hpp"

#include <cstdio>

namespace hgr {

const char* to_string(IncrementalMode mode) {
  switch (mode) {
    case IncrementalMode::kOff:
      return "off";
    case IncrementalMode::kAuto:
      return "auto";
    case IncrementalMode::kOn:
      return "on";
  }
  return "unknown";
}

std::string PartitionConfig::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "k=%d eps=%.3f seed=%llu trials=%d passes=%d incr=%s "
                "check=%s faults=%s threads=%d",
                num_parts, epsilon, static_cast<unsigned long long>(seed),
                num_initial_trials, max_refine_passes,
                hgr::to_string(incremental), check::to_string(check_level),
                fault_plan ? "on" : "off", num_threads);
  return buf;
}

}  // namespace hgr
