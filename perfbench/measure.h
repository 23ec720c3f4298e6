#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "detect/features.h"
#include "detect/tests.h"

namespace perfbench {

/// What the verdict sink copies out of one window's verdict.
struct WindowSeen {
  std::size_t flows_seen = 0;
  HostSet input, reduced, s_vol, s_churn, vol_or_churn, plotters;
  std::map<std::uint32_t, HostCounts> hosts;
  Clock::time_point sink_in, sink_out;
};

struct RoundResult {
  std::uint64_t flows = 0;
  double wall_ms = 0.0;                 // open the trace .. last verdict returned
  std::vector<double> close_ms;         // per window
  std::vector<double> teardown_ms;      // per window
  double send_ms = 0.0;                 // daemon round: FrameSender::stream
  double stop_ms = 0.0;                 // daemon round: Daemon::stop
  std::uint64_t frames = 0;             // daemon round: frames sent
  std::vector<WindowSeen> windows;
  std::vector<std::string> problems;    // round-level accounting faults
};

/// Outcome of checking one window against set-up's expectations.
struct WindowCheck {
  bool failed = false;
  /// Every failed check is one the two-level merge fault produces (plotter
  /// set, reduced set, S_vol, S_churn, false positives) on a sharded window.
  bool merge_fault_only = true;
  std::string detail;
  /// A Storm window that flagged fewer Storm carriers than kStormFloor.
  /// Reported, not failed: the batch oracle misses the floor on some seeds
  /// too, so it is a property of the detector on that input, not of the run.
  bool below_storm_floor = false;
  std::size_t carriers_flagged = 0;  // bot carriers among the plotters
  std::size_t false_positives = 0;   // plotters that carry no bot
};

WindowCheck check_window(const WindowSeen& seen, const WindowExpect& expect, bool sharded);

HostSet values(const tradeplot::detect::HostSet& s);
std::map<std::uint32_t, HostCounts> counts_of(const tradeplot::detect::FeatureMap& f);

/// One pass of the trace through the workload's public entry point.
RoundResult streaming_round(const std::string& trace_path, bool sharded);
/// One pass of the trace through a FrameSender into an in-process Daemon;
/// checks the books and reads back the verdict log (no close times).
RoundResult daemon_round(const std::string& trace_path, const Expectations& expect,
                         const std::string& state_dir);

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;
  std::uint64_t storm_windows = 0;
  std::uint64_t storm_below_floor = 0;
  // Summed over every window checked (all rounds).
  std::uint64_t carriers = 0;
  std::uint64_t carriers_flagged = 0;
  std::uint64_t false_positives = 0;
};

/// Untraced run: whole rounds until `seconds` have passed, every window
/// checked, end-to-end metrics reported.
RunResult measure(const Workload& wl, const std::string& dir, double seconds);

/// Traced run: per-layer metrics from spans around each public call.
RunResult measure_traced(const Workload& wl, const std::string& dir);

/// Checks every window of a round; adds to attempted/failed/notes. The
/// windows of a round that pass every check must flag at least one bot
/// carrier between them, or the run is not correct.
void check_round(const Workload& wl, const Expectations& e, const RoundResult& r,
                 RunResult& out);

}  // namespace perfbench
