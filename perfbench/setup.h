#pragma once

#include <cstdint>
#include <string>

#include "bench.h"

namespace perfbench {

struct SetupReport {
  double setup_s = 0.0;  // wall time of everything below
  // Per-stage times; campus/overlay/oracle are summed over windows, which
  // set-up builds on TRADEPLOT_THREADS threads, so with more than one they
  // can exceed their share of setup_s.
  double honeynet_ms = 0.0;
  double campus_ms = 0.0;
  double overlay_ms = 0.0;
  double write_ms = 0.0;
  double oracle_ms = 0.0;
  std::uint64_t flows = 0;
};

/// Writes `dir`/trace.cbin and `dir`/expect.txt for workload `wl`.
SetupReport run_setup(const Workload& wl, std::uint64_t seed, const std::string& dir);

}  // namespace perfbench
