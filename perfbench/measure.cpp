// Rounds: the trace through StreamingDetector or ShardedDetector, each
// window's verdict copied out by the sink and checked after the round
// against set-up's recount and the batch oracle; and the daemon round of the
// traced run's svc pass.
#include "measure.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "detect/streaming.h"
#include "netflow/flow_batch.h"
#include "netflow/trace_reader.h"
#include "shard/sharded_detector.h"
#include "svc/daemon.h"
#include "svc/sender.h"

namespace perfbench {

using namespace tradeplot;

HostSet values(const detect::HostSet& s) {
  HostSet out;
  out.reserve(s.size());
  for (const simnet::Ipv4 h : s) out.push_back(h.value());
  return out;
}

std::map<std::uint32_t, HostCounts> counts_of(const detect::FeatureMap& f) {
  std::map<std::uint32_t, HostCounts> out;
  for (const auto& [h, x] : f)
    out[h.value()] = {x.flows_initiated, x.flows_failed, x.flows_received,
                      x.bytes_sent_initiated, x.bytes_sent_received};
  return out;
}

namespace {

bool subset(const HostSet& a, const HostSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

HostSet set_union(const HostSet& a, const HostSet& b) {
  HostSet out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

std::size_t overlap(const HostSet& a, const HostSet& b) {
  HostSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out.size();
}

/// Copies the parts of a verdict the checks need; runs inside the sink.
WindowSeen copy_verdict(const detect::WindowVerdict& v) {
  WindowSeen s;
  s.flows_seen = v.flows_seen;
  const detect::FindPlottersResult& r = v.result;
  s.input = values(r.input);
  s.reduced = values(r.reduced);
  s.s_vol = values(r.s_vol);
  s.s_churn = values(r.s_churn);
  s.vol_or_churn = values(r.vol_or_churn);
  s.plotters = values(r.plotters);
  s.hosts = counts_of(v.features);
  return s;
}

detect::StreamingConfig streaming_config() {
  detect::StreamingConfig c;
  c.window = kWindow;
  c.is_internal = detect::default_internal_predicate;
  return c;
}

template <typename Detector>
RoundResult drive(Detector& det, std::vector<WindowSeen>& seen, const std::string& path,
                  Clock::time_point open) {
  RoundResult r;
  const auto closed = [&](Clock::time_point t0, std::size_t before) {
    const Clock::time_point t1 = Clock::now();
    if (seen.size() != before + 1) throw std::runtime_error("boundary emitted no verdict");
    r.close_ms.push_back(ms_between(t0, seen.back().sink_in));
    r.teardown_ms.push_back(ms_between(seen.back().sink_out, t1));
  };
  netflow::TraceReader reader(path);
  netflow::FlowBatch batch;
  double boundary = kWindow;
  while (const std::size_t n = reader.next_batch(batch)) {
    r.flows += n;
    const double* start = batch.start_time();
    std::size_t pos = 0;
    while (start[n - 1] >= boundary) {
      // Split the batch at the first flow past the boundary: that one flow
      // closes the window.
      const std::size_t k =
          static_cast<std::size_t>(std::lower_bound(start + pos, start + n, boundary) - start);
      det.ingest(batch, pos, k);
      const std::size_t before = seen.size();
      const Clock::time_point t0 = Clock::now();
      det.ingest(batch, k, k + 1);
      closed(t0, before);
      pos = k + 1;
      boundary += kWindow;
    }
    det.ingest(batch, pos, n);
  }
  const std::size_t before = seen.size();
  const Clock::time_point t0 = Clock::now();
  det.flush();
  closed(t0, before);
  r.wall_ms = ms_between(open, Clock::now());
  return r;
}

}  // namespace

RoundResult streaming_round(const std::string& trace_path, bool sharded) {
  std::vector<WindowSeen> seen;
  const auto sink = [&seen](const detect::WindowVerdict& v) {
    const Clock::time_point in = Clock::now();
    seen.push_back(copy_verdict(v));
    seen.back().sink_in = in;
    seen.back().sink_out = Clock::now();
  };
  RoundResult r;
  const Clock::time_point open = Clock::now();
  if (sharded) {
    shard::ShardedConfig c;
    const detect::StreamingConfig s = streaming_config();
    c.shards = kShards;
    c.window = s.window;
    c.is_internal = s.is_internal;
    shard::ShardedDetector det(c, sink);
    r = drive(det, seen, trace_path, open);
  } else {
    detect::StreamingDetector det(streaming_config(), sink);
    r = drive(det, seen, trace_path, open);
  }
  r.windows = std::move(seen);
  return r;
}

// --- daemon ----------------------------------------------------------------

namespace {

std::uint32_t parse_ip(const std::string& s) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (std::sscanf(s.c_str(), "%u.%u.%u.%u", &a, &b, &c, &d) != 4)
    throw std::runtime_error("bad address in verdict log: " + s);
  return (a << 24) | (b << 16) | (c << 8) | d;
}

/// Reads the tenant's verdict log: flows_seen, hosts and plotters per line.
std::vector<WindowSeen> read_verdict_log(const std::string& path,
                                         std::vector<std::size_t>& hosts) {
  std::ifstream in(path);
  std::vector<WindowSeen> out;
  std::string line;
  while (std::getline(in, line)) {
    WindowSeen s;
    std::size_t index = 0, host_count = 0;
    if (std::sscanf(line.c_str(), "{\"window_index\":%zu", &index) != 1 ||
        index != out.size())
      throw std::runtime_error("verdict log out of order: " + line);
    const auto field = [&](const char* key) -> std::size_t {
      const std::size_t at = line.find(key);
      if (at == std::string::npos)
        throw std::runtime_error("verdict log lacks " + std::string(key));
      return std::stoull(line.substr(at + std::strlen(key)));
    };
    s.flows_seen = field("\"flows_seen\":");
    host_count = field("\"hosts\":");
    std::size_t at = line.find("\"plotters\":[");
    if (at == std::string::npos) throw std::runtime_error("verdict log lacks plotters");
    at += 12;
    while (line[at] == '"') {
      const std::size_t close = line.find('"', at + 1);
      s.plotters.push_back(parse_ip(line.substr(at + 1, close - at - 1)));
      at = close + 1;
      if (line[at] == ',') ++at;
    }
    std::sort(s.plotters.begin(), s.plotters.end());
    hosts.push_back(host_count);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

RoundResult daemon_round(const std::string& trace_path, const Expectations& expect,
                         const std::string& state_dir) {
  std::filesystem::remove_all(state_dir);
  std::filesystem::create_directories(state_dir);
  svc::DaemonConfig cfg;
  cfg.ingest = "unix:" + state_dir + "/ingest.sock";
  cfg.state_dir = state_dir;
  svc::TenantParams tenant;  // defaults: block overflow, checkpoint every 100k flows
  tenant.name = "campus";
  tenant.window = kWindow;
  cfg.tenants.push_back(tenant);
  svc::Daemon daemon(cfg);
  daemon.start();
  svc::Tenant* t = daemon.find_tenant("campus");
  if (t == nullptr) throw std::runtime_error("daemon tenant missing");

  RoundResult r;
  const Clock::time_point open = Clock::now();
  svc::SenderOptions so;
  so.endpoint = cfg.ingest;
  so.tenant = tenant.name;
  svc::FrameSender sender(so);
  svc::SendReport report;
  try {
    report = sender.stream(trace_path);
  } catch (...) {
    daemon.stop();
    throw;
  }
  const Clock::time_point stop_called = Clock::now();
  daemon.stop();  // drain, final checkpoint, last-window flush
  const Clock::time_point end = Clock::now();

  r.flows = report.rows_sent;
  r.wall_ms = ms_between(open, end);
  r.send_ms = ms_between(open, stop_called);
  r.stop_ms = ms_between(stop_called, end);
  r.frames = report.frames_sent;

  const svc::Tenant::Stats s = t->stats();
  if (!(report.accepted == expect.total_flows && report.ingested == expect.total_flows &&
        report.rows_sent == expect.total_flows && s.ingested == expect.total_flows &&
        report.shed == 0 && report.quarantined == 0 && s.shed == 0 && s.quarantined == 0))
    r.problems.push_back("daemon accounting: sent " + std::to_string(report.rows_sent) +
                         " accepted " + std::to_string(report.accepted) + " ingested " +
                         std::to_string(s.ingested) + " shed " + std::to_string(s.shed) +
                         " quarantined " + std::to_string(s.quarantined));

  std::vector<std::size_t> hosts;
  r.windows = read_verdict_log(t->verdict_log_path(), hosts);
  const std::size_t windows = expect.windows.size();
  if (r.windows.size() != windows)
    r.problems.push_back("daemon logged " + std::to_string(r.windows.size()) + " verdicts");
  for (std::size_t w = 0; w < std::min(windows, r.windows.size()); ++w)
    if (hosts[w] != expect.windows[w].hosts.size())
      r.problems.push_back("daemon window " + std::to_string(w) + " host count");
  return r;
}

// --- checks ----------------------------------------------------------------

WindowCheck check_window(const WindowSeen& s, const WindowExpect& e, bool sharded) {
  WindowCheck c;
  const auto fail = [&](bool merge_stage, const std::string& what) {
    c.failed = true;
    c.merge_fault_only = c.merge_fault_only && merge_stage && sharded;
    c.detail += (c.detail.empty() ? "" : "; ") + what;
  };
  if (s.flows_seen != e.flows)
    fail(false, "flows " + std::to_string(s.flows_seen) + " != generated " +
                    std::to_string(e.flows));
  if (s.plotters != e.oracle_plotters)
    fail(true, "plotters " + std::to_string(s.plotters.size()) + " != oracle " +
                   std::to_string(e.oracle_plotters.size()));
  c.carriers_flagged = overlap(s.plotters, e.bots);
  c.false_positives = s.plotters.size() - c.carriers_flagged;
  c.below_storm_floor = e.storm && c.carriers_flagged < kStormFloor;
  if (static_cast<double>(c.false_positives) >
      kMaxFalsePositiveShare * static_cast<double>(e.hosts.size()))
    fail(true, std::to_string(c.false_positives) + " false positives of " +
                   std::to_string(e.hosts.size()) + " hosts");
  if (s.hosts.empty()) return c;  // daemon verdict logs carry no funnel
  if (s.hosts != e.hosts) fail(false, "per-host counts differ from the recount");
  HostSet own_input;
  for (const auto& [h, counts] : e.hosts) own_input.push_back(h);
  if (s.input != own_input) fail(false, "input set differs from the recount");
  if (s.reduced != e.reduced) fail(true, "reduced set differs from the recount's median cut");
  if (s.s_vol != e.s_vol) fail(true, "S_vol differs from the recount's θ_vol");
  if (s.s_churn != e.s_churn) fail(true, "S_churn differs from the recount's θ_churn");
  if (!(subset(s.plotters, s.vol_or_churn) && s.vol_or_churn == set_union(s.s_vol, s.s_churn) &&
        subset(s.vol_or_churn, s.reduced) && subset(s.reduced, s.input)))
    fail(false, "funnel not nested");
  return c;
}

void check_round(const Workload& wl, const Expectations& e, const RoundResult& r,
                 RunResult& out) {
  const bool sharded = wl.path == Path::kSharded;
  out.attempted += e.windows.size();
  for (const std::string& p : r.problems) {
    out.correct = false;
    out.notes.push_back(p);
  }
  std::size_t passed = 0, passed_flagged = 0;
  for (std::size_t w = 0; w < e.windows.size(); ++w) {
    WindowCheck c;
    if (w < r.windows.size()) {
      c = check_window(r.windows[w], e.windows[w], sharded);
    } else {
      c.failed = true;
      c.merge_fault_only = false;
      c.detail = "no verdict";
    }
    if (e.windows[w].storm) {
      ++out.storm_windows;
      out.storm_below_floor += c.below_storm_floor ? 1 : 0;
    }
    out.carriers += e.windows[w].bots.size();
    out.carriers_flagged += c.carriers_flagged;
    out.false_positives += c.false_positives;
    if (!c.failed) {
      ++passed;
      passed_flagged += c.carriers_flagged;
      continue;
    }
    ++out.failed;
    if (!c.merge_fault_only) out.correct = false;
    const std::string note = "window " + std::to_string(w) + ": " + c.detail;
    if (std::find(out.notes.begin(), out.notes.end(), note) == out.notes.end())
      out.notes.push_back(note);
  }
  // A detector that flags no bot anywhere has lost θ_hm (or the tests that
  // feed it) even when it agrees with an oracle built from the same code.
  if (passed > 0 && passed_flagged == 0) {
    out.correct = false;
    out.notes.push_back("no bot carrier flagged in any window that passed its checks");
  }
}

RunResult measure(const Workload& wl, const std::string& dir, double seconds) {
  const Expectations e = read_expectations(dir + "/expect.txt");
  const std::string trace = dir + "/trace.cbin";
  RunResult out;
  std::vector<double> rates;
  std::vector<std::vector<double>> closes(e.windows.size());  // per window, per round
  // Round 0 warms the allocator, the page cache and the thread pool; it is
  // checked like every round but not timed into the metrics.
  Clock::time_point start;
  int round = 0;
  do {
    const RoundResult r = streaming_round(trace, wl.path == Path::kSharded);
    const double rate = static_cast<double>(r.flows) / (r.wall_ms / 1000.0);
    std::fprintf(stderr, "round %d: %.0f flows/s, wall %.1f ms, close ms", round, rate,
                 r.wall_ms);
    for (const double c : r.close_ms) std::fprintf(stderr, " %.1f", c);
    std::fprintf(stderr, ", teardown ms");
    for (const double c : r.teardown_ms) std::fprintf(stderr, " %.1f", c);
    std::fprintf(stderr, "\n");
    if (round == 0) {
      // Peak of one whole round, before any check allocates.
      out.metrics["peak_rss_mb"] = peak_rss_mb();
      start = Clock::now();
    } else {
      rates.push_back(rate);
      for (std::size_t w = 0; w < std::min(closes.size(), r.close_ms.size()); ++w)
        closes[w].push_back(r.close_ms[w]);
    }
    check_round(wl, e, r, out);
    ++round;
  } while (round < 2 || ms_between(start, Clock::now()) < seconds * 1000.0);
  out.metrics["flows_per_s"] = median(rates);
  // Storm and Nugache windows close at different speeds, so the median is
  // taken per window first (over rounds), then across the trace's windows.
  std::vector<double> per_window;
  for (const std::vector<double>& c : closes) per_window.push_back(median(c));
  out.metrics["window_close_ms"] = median(per_window);
  out.metrics["rounds"] = round;
  return out;
}

}  // namespace perfbench
