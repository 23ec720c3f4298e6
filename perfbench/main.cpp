// perfbench: the trace-to-verdict benchmark's measuring program.
//
//   perfbench setup --workload W --seed N --dir D
//       simulate, overlay, write D/trace.cbin, compute the oracle and the
//       recount into D/expect.txt; print the set-up timings as JSON.
//   perfbench run --workload W --dir D --seconds S --trace 0|1 [--path sharded]
//       measure D/trace.cbin through the workload's entry point; print
//       correct/attempted/failed and the metrics as JSON. --path sharded
//       sends a StreamingDetector workload's trace through ShardedDetector
//       instead (the README's single- versus 4-shard reference figures).
//
// run.py in this directory builds this program and drives both steps; the
// two steps are separate processes so that peak_rss_mb sees only ingest and
// detection.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "measure.h"
#include "setup.h"

using namespace perfbench;

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + '"';
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench setup --workload W --seed N --dir D\n"
               "       perfbench run --workload W --dir D --seconds S --trace 0|1 "
               "[--path sharded]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string workload, dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--dir") dir = value;
    else if (key == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") seconds = std::atof(value.c_str());
    else if (key == "--trace") traced = value == "1";
    else if (key == "--path") path = value;
    else return usage();
  }
  if (workload.empty() || dir.empty()) return usage();
  try {
    Workload wl = find_workload(workload);
    if (path == "sharded") wl.path = Path::kSharded;
    else if (!path.empty()) return usage();
    if (cmd == "setup") {
      const SetupReport r = run_setup(wl, wl.fixed_seed ? kShardedSeed : seed, dir);
      std::printf(
          "{\"setup_s\": %.9g, \"sim.honeynet_ms\": %.9g, \"sim.campus_ms\": %.9g, "
          "\"sim.overlay_ms\": %.9g, \"sim.write_ms\": %.9g, \"sim.oracle_ms\": %.9g, "
          "\"flows\": %llu}\n",
          r.setup_s, r.honeynet_ms, r.campus_ms, r.overlay_ms, r.write_ms, r.oracle_ms,
          static_cast<unsigned long long>(r.flows));
      return 0;
    }
    if (cmd != "run") return usage();
    const RunResult r = traced ? measure_traced(wl, dir) : measure(wl, dir, seconds);
    std::string notes;
    for (const std::string& n : r.notes) notes += (notes.empty() ? "" : ", ") + json_string(n);
    std::string metrics;
    for (const auto& [name, value] : r.metrics) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9g", metrics.empty() ? "" : ", ",
                    name.c_str(), value);
      metrics += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}, "
                "\"storm_windows\": %llu, \"storm_below_floor\": %llu, \"carriers\": %llu, "
                "\"carriers_flagged\": %llu, \"false_positives\": %llu, \"notes\": [%s]}\n",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), metrics.c_str(),
                static_cast<unsigned long long>(r.storm_windows),
                static_cast<unsigned long long>(r.storm_below_floor),
                static_cast<unsigned long long>(r.carriers),
                static_cast<unsigned long long>(r.carriers_flagged),
                static_cast<unsigned long long>(r.false_positives), notes.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
