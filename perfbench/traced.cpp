// Traced run: per-layer metrics from spans the benchmark records around the
// public calls of each layer. Where a detector hides a layer's calls, a
// pass composes the same public functions the detector calls and checks
// that it reaches the same verdict.
//
// Passes, in order (each over the workload's whole trace):
//   reference  the workload's own round, untraced, checked like an
//              untraced run; attempted/failed count this round only.
//   streaming  an untraced, warm StreamingDetector round: wall time for the
//              tracing-overhead ratio, and teardown after each verdict.
//   detect     decode + WindowAccumulator + finalize + reduction/θ_vol/
//              θ_churn/θ_hm composed, with obs on.
//   checkpoint StreamingDetector with save_checkpoint at every 100k-flow
//              cursor (the daemon's default cadence), with obs on.
//   shard      HashRing routing, per-shard apply and finalize replayed one
//              shard at a time, merged_find_plotters.
//   svc        a daemon round: FrameSender into an in-process Daemon, its
//              books and verdict log checked.
#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "detect/accumulator.h"
#include "detect/find_plotters.h"
#include "detect/hm_cache.h"
#include "detect/streaming.h"
#include "measure.h"
#include "netflow/flow_batch.h"
#include "netflow/trace_reader.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "shard/merge.h"
#include "shard/ring.h"

namespace perfbench {

using namespace tradeplot;

namespace {

constexpr std::uint64_t kCheckpointEvery = 100000;  // svc::TenantParams default

/// Sum, in ms, of each obs::Profiler stage histogram in the global registry.
std::map<std::string, double> obs_stage_ms() {
  std::map<std::string, double> out;
  for (const obs::SnapshotSample& s : obs::Registry::global().snapshot().samples) {
    if (s.name != "tradeplot_stage_duration_seconds") continue;
    for (const auto& [k, v] : s.labels)
      if (k == "stage") out[v] = s.histogram.sum * 1000.0;
  }
  return out;
}

/// Calls `segment(batch, begin, end)` for the rows between window
/// boundaries and `boundary()` at each boundary (before the first flow past
/// it) and at end of trace; decode time goes to span "netflow.decode".
template <typename Segment, typename Boundary>
std::uint64_t walk(const std::string& path, Tracer& tr, int parent, Segment segment,
                   Boundary boundary) {
  netflow::TraceReader reader(path);
  netflow::FlowBatch batch;
  double next = kWindow;
  std::uint64_t flows = 0;
  for (;;) {
    std::size_t n = 0;
    {
      const Scope s(tr, "netflow.decode", parent);
      n = reader.next_batch(batch);
    }
    if (n == 0) break;
    flows += n;
    const double* start = batch.start_time();
    std::size_t pos = 0;
    while (start[n - 1] >= next) {
      const auto k =
          static_cast<std::size_t>(std::lower_bound(start + pos, start + n, next) - start);
      segment(batch, pos, k);
      boundary();
      pos = k;
      next += kWindow;
    }
    segment(batch, pos, n);
  }
  boundary();
  return flows;
}

struct Layers {
  std::map<std::string, double> m;
  std::vector<std::string> problems;
};

/// The detect pass: StreamingDetector's ingest and window close, composed.
void detect_pass(const std::string& path, const Expectations& e, Layers& out, Tracer& tr,
                 double& wall_ms) {
  const int pass = tr.begin("pass.detect", -1);
  const auto internal = detect::default_internal_predicate;
  const detect::FindPlottersConfig cfg;
  detect::WindowAccumulator acc;
  detect::HmCache cache;
  std::vector<double> finalize, reduction, vol, churn, hm, hosts, samples, hm_hosts, evals,
      fraction;
  double cache_hits = 0.0;
  std::size_t window = 0;
  std::vector<WindowSeen> composed;

  const auto segment = [&](const netflow::FlowBatch& b, std::size_t begin, std::size_t end) {
    const Scope s(tr, "detect.accumulate", pass);
    for (std::size_t i = begin; i < end; ++i) {
      const bool failed = b.state()[i] != netflow::FlowState::kEstablished;
      if (internal(b.src()[i]))
        acc.apply_initiator(b.src()[i], b.dst()[i], b.start_time()[i], b.bytes_src()[i], failed,
                            0);
      if (internal(b.dst()[i]) && !failed)
        acc.apply_responder(b.dst()[i], b.start_time()[i], b.bytes_dst()[i]);
    }
  };
  const auto boundary = [&] {
    const Scope win(tr, "detect.window", pass);
    const auto timed = [&](const char* name, std::vector<double>& into, auto fn) {
      const Clock::time_point t0 = Clock::now();
      fn();
      const Clock::time_point t1 = Clock::now();
      tr.add(name, t0, t1, win.id());
      into.push_back(ms_between(t0, t1));
    };
    samples.push_back(static_cast<double>(acc.timing_samples()));
    detect::FeatureMap f;
    timed("detect.finalize", finalize, [&] { f = acc.finalize(kNewIpGrace); });
    detect::FindPlottersResult r;
    r.input = detect::all_hosts(f);
    if (!r.input.empty())
      timed("detect.reduction", reduction,
            [&] { r.reduced = detect::data_reduction(f, r.input, cfg.reduction); });
    if (!r.reduced.empty()) {
      timed("detect.theta_vol", vol,
            [&] { r.s_vol = detect::volume_test(f, r.reduced, cfg.volume); });
      timed("detect.theta_churn", churn,
            [&] { r.s_churn = detect::churn_test(f, r.reduced, cfg.churn); });
      r.vol_or_churn = detect::host_union(r.s_vol, r.s_churn);
      timed("detect.theta_hm", hm, [&] {
        r.hm = detect::human_machine_test(f, r.vol_or_churn, cfg.human_machine, &cache);
      });
      r.plotters = r.hm.flagged;
      const detect::HmPruneStats& p = r.hm.prune;
      hm_hosts.push_back(static_cast<double>(r.vol_or_churn.size()));
      evals.push_back(static_cast<double>(p.exact_kernel_evals));
      fraction.push_back(p.pairs_total == 0 ? 0.0
                                            : static_cast<double>(p.exact_kernel_evals) /
                                                  static_cast<double>(p.pairs_total));
      cache_hits += static_cast<double>(p.cache_hits);
    }
    hosts.push_back(static_cast<double>(f.size()));

    // The composed verdict must be the detector's: checked after the pass.
    WindowSeen& seen = composed.emplace_back();
    seen.flows_seen = e.windows.at(window).flows;  // conservation is checked by the rounds
    seen.input = values(r.input);
    seen.reduced = values(r.reduced);
    seen.s_vol = values(r.s_vol);
    seen.s_churn = values(r.s_churn);
    seen.vol_or_churn = values(r.vol_or_churn);
    seen.plotters = values(r.plotters);
    seen.hosts = counts_of(f);
    {
      const Scope s(tr, "detect.reset", win.id());
      acc.reset();
      f = {};
    }
    ++window;
  };

  const std::uint64_t flows = walk(path, tr, pass, segment, boundary);
  tr.end(pass);
  for (std::size_t w = 0; w < composed.size(); ++w) {
    const WindowCheck c = check_window(composed[w], e.windows.at(w), false);
    if (c.failed)
      out.problems.push_back("detect pass window " + std::to_string(w) + ": " + c.detail);
  }
  wall_ms = tr.spans()[pass].end_ms - tr.spans()[pass].start_ms;
  const double nflows = static_cast<double>(flows);
  out.m["netflow.decode_ms"] = tr.total_ms("netflow.decode");
  out.m["netflow.decode_ns_per_flow"] = tr.total_ms("netflow.decode") * 1e6 / nflows;
  out.m["detect.accumulate_ns_per_flow"] = tr.total_ms("detect.accumulate") * 1e6 / nflows;
  out.m["detect.hosts_per_window"] = median(hosts);
  out.m["detect.timing_samples_per_window"] = median(samples);
  out.m["detect.finalize_ms"] = median(finalize);
  out.m["detect.reduction_ms"] = median(reduction);
  out.m["detect.theta_vol_ms"] = median(vol);
  out.m["detect.theta_churn_ms"] = median(churn);
  out.m["detect.theta_hm_ms"] = median(hm);
  out.m["detect.theta_hm_hosts"] = median(hm_hosts);
  out.m["stats.exact_kernel_evals"] = median(evals);
  out.m["stats.eval_fraction"] = median(fraction);
  out.m["detect.hm_cache_hits"] = cache_hits;
  out.m["bench.unattributed_ms"] = tr.self_ms(pass);
}

/// The checkpoint pass: the daemon's checkpoint cadence on one detector.
void checkpoint_pass(const std::string& path, const std::string& dir, Layers& out, Tracer& tr) {
  const int pass = tr.begin("pass.checkpoint", -1);
  detect::StreamingConfig cfg;
  cfg.window = kWindow;
  cfg.is_internal = detect::default_internal_predicate;
  detect::StreamingDetector det(cfg, [](const detect::WindowVerdict&) {});
  const std::string image = dir + "/checkpoint.tpck";
  std::vector<double> bytes;
  std::uint64_t done = 0, next_save = kCheckpointEvery;
  const auto segment = [&](const netflow::FlowBatch& b, std::size_t begin, std::size_t end) {
    while (begin < end) {
      const std::size_t cut = std::min<std::uint64_t>(end, begin + (next_save - done));
      {
        const Scope s(tr, "detect.ingest", pass);
        det.ingest(b, begin, cut);
      }
      done += cut - begin;
      begin = cut;
      if (done == next_save) {
        {
          const Scope s(tr, "detect.checkpoint_save", pass);
          det.save_checkpoint_file(image);
        }
        bytes.push_back(static_cast<double>(std::filesystem::file_size(image)));
        next_save += kCheckpointEvery;
      }
    }
  };
  // Windows close inside ingest at the first flow past the boundary; only
  // the last one needs a flush.
  walk(path, tr, pass, segment, [] {});
  {
    const Scope s(tr, "detect.flush", pass);
    det.flush();
  }
  tr.end(pass);
  std::filesystem::remove(image);
  out.m["detect.checkpoint_save_ms"] = tr.total_ms("detect.checkpoint_save");
  out.m["detect.checkpoint_bytes"] = median(bytes);
}

/// The shard pass: ShardedDetector's route/apply/finalize/merge, one shard
/// at a time so each shard's share is measured alone.
void shard_pass(const std::string& path, const Expectations& e, const RoundResult* sharded_ref,
                Layers& out, Tracer& tr) {
  const int pass = tr.begin("pass.shard", -1);
  const std::size_t shards = kShards;
  const auto internal = detect::default_internal_predicate;
  const detect::FindPlottersConfig cfg;
  const shard::HashRing ring(shards);
  std::vector<detect::WindowAccumulator> accs(shards);
  std::vector<detect::HmCache> caches(shards);
  std::vector<detect::HmCache*> cache_ptrs;
  for (detect::HmCache& c : caches) cache_ptrs.push_back(&c);
  std::vector<std::vector<std::uint32_t>> ops(shards);
  constexpr std::uint32_t kResponder = 0x80000000u;
  std::vector<double> apply_ms(shards, 0.0), finalize_max, merge;
  std::size_t window = 0;

  const auto segment = [&](const netflow::FlowBatch& b, std::size_t begin, std::size_t end) {
    {
      const Scope s(tr, "shard.route", pass);
      for (std::size_t i = begin; i < end; ++i) {
        const bool failed = b.state()[i] != netflow::FlowState::kEstablished;
        if (internal(b.src()[i]))
          ops[ring.shard_of(b.src()[i])].push_back(static_cast<std::uint32_t>(i));
        if (internal(b.dst()[i]) && !failed)
          ops[ring.shard_of(b.dst()[i])].push_back(static_cast<std::uint32_t>(i) | kResponder);
      }
    }
    for (std::size_t s = 0; s < shards; ++s) {
      const Clock::time_point t0 = Clock::now();
      for (const std::uint32_t op : ops[s]) {
        const std::size_t i = op & ~kResponder;
        if ((op & kResponder) != 0)
          accs[s].apply_responder(b.dst()[i], b.start_time()[i], b.bytes_dst()[i]);
        else
          accs[s].apply_initiator(b.src()[i], b.dst()[i], b.start_time()[i], b.bytes_src()[i],
                                  b.state()[i] != netflow::FlowState::kEstablished, 0);
      }
      const Clock::time_point t1 = Clock::now();
      tr.add("shard.apply", t0, t1, pass);
      apply_ms[s] += ms_between(t0, t1);
      ops[s].clear();
    }
  };
  const auto boundary = [&] {
    const Scope win(tr, "shard.window", pass);
    std::vector<detect::FeatureMap> features(shards);
    double slowest = 0.0;
    for (std::size_t s = 0; s < shards; ++s) {
      const Clock::time_point t0 = Clock::now();
      features[s] = accs[s].finalize(kNewIpGrace);
      const Clock::time_point t1 = Clock::now();
      tr.add("shard.finalize", t0, t1, win.id());
      slowest = std::max(slowest, ms_between(t0, t1));
      accs[s].reset();
    }
    finalize_max.push_back(slowest);
    const Clock::time_point t0 = Clock::now();
    const shard::MergedResult merged =
        shard::merged_find_plotters(features, cfg, cache_ptrs, 1024);
    const Clock::time_point t1 = Clock::now();
    tr.add("shard.merge", t0, t1, win.id());
    merge.push_back(ms_between(t0, t1));

    // Routing must partition the hosts exactly; on the sharded workload the
    // merged verdict must be the detector's own.
    std::map<std::uint32_t, HostCounts> hosts;
    for (const detect::FeatureMap& f : features)
      for (const auto& [h, c] : counts_of(f))
        if (!hosts.emplace(h, c).second)
          out.problems.push_back("shard pass: host on two shards");
    if (hosts != e.windows.at(window).hosts)
      out.problems.push_back("shard pass window " + std::to_string(window) +
                             ": per-shard features differ from the recount");
    if (sharded_ref != nullptr && window < sharded_ref->windows.size() &&
        values(merged.result.plotters) != sharded_ref->windows[window].plotters)
      out.problems.push_back("shard pass window " + std::to_string(window) +
                             ": composed merge differs from ShardedDetector");
    ++window;
  };
  walk(path, tr, pass, segment, boundary);
  tr.end(pass);
  double sum = 0.0, max = 0.0;
  for (const double a : apply_ms) {
    sum += a;
    max = std::max(max, a);
  }
  out.m["shard.route_ms"] = tr.total_ms("shard.route");
  out.m["shard.apply_max_ms"] = max;
  out.m["shard.apply_sum_ms"] = sum;
  out.m["shard.balance"] = sum > 0.0 ? max / (sum / static_cast<double>(shards)) : 1.0;
  out.m["shard.finalize_max_ms"] = median(finalize_max);
  out.m["shard.merge_ms"] = median(merge);
}

}  // namespace

RunResult measure_traced(const Workload& wl, const std::string& dir) {
  const Expectations e = read_expectations(dir + "/expect.txt");
  const std::string trace = dir + "/trace.cbin";
  RunResult out;
  Tracer tr;
  Layers layers;

  // Untraced rounds first, with obs still off.
  const RoundResult reference = streaming_round(trace, wl.path == Path::kSharded);
  check_round(wl, e, reference, out);
  // A second, warm StreamingDetector round on every workload.
  const RoundResult streaming = streaming_round(trace, false);
  RunResult streaming_check;
  check_round({wl.name, wl.scale, wl.windows, Path::kStreaming}, e, streaming, streaming_check);
  if (streaming_check.failed > 0 || !streaming_check.correct)
    layers.problems.push_back("streaming round failed");
  layers.m["detect.teardown_ms"] = median(streaming.teardown_ms);

  obs::set_enabled(true);
  obs::Registry::global().reset();
  double detect_wall = 0.0;
  detect_pass(trace, e, layers, tr, detect_wall);
  const std::map<std::string, double> detect_obs = obs_stage_ms();
  layers.m["bench.traced_wall_ratio"] = detect_wall / streaming.wall_ms;

  obs::Registry::global().reset();
  checkpoint_pass(trace, dir, layers, tr);
  const std::map<std::string, double> checkpoint_obs = obs_stage_ms();
  for (const char* stage : {"batch_decode", "signature_build", "clustering", "prune_index"})
    layers.m[std::string("obs.") + stage + "_ms"] =
        detect_obs.count(stage) ? detect_obs.at(stage) : 0.0;
  for (const char* stage : {"window_close", "theta_hm", "checkpoint_save"})
    layers.m[std::string("obs.") + stage + "_ms"] =
        checkpoint_obs.count(stage) ? checkpoint_obs.at(stage) : 0.0;

  shard_pass(trace, e, wl.path == Path::kSharded ? &reference : nullptr, layers, tr);
  obs::set_enabled(false);

  const RoundResult daemon = daemon_round(trace, e, dir + "/daemon");
  RunResult daemon_check;
  check_round({wl.name, wl.scale, wl.windows, Path::kStreaming}, e, daemon, daemon_check);
  if (daemon_check.failed > 0 || !daemon_check.correct)
    layers.problems.push_back("daemon round failed");
  layers.m["svc.send_ms"] = daemon.send_ms;
  layers.m["svc.stop_ms"] = daemon.stop_ms;
  layers.m["svc.frames_sent"] = static_cast<double>(daemon.frames);

  tr.write_jsonl(dir + ".spans.jsonl");  // outside dir, which run.py removes
  for (const std::string& p : layers.problems) {
    out.correct = false;
    out.notes.push_back(p);
  }
  out.metrics = std::move(layers.m);
  return out;
}

}  // namespace perfbench
