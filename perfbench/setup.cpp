// Set-up: simulate the campus and honeynet traces, overlay one botnet per
// window the way eval::make_day does, write every window into one v3
// columnar trace, compute the batch oracle, and record the benchmark's own
// recount of each window for the measured run to check against.
#include "setup.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "botnet/honeynet.h"
#include "detect/features.h"
#include "detect/find_plotters.h"
#include "netflow/io.h"
#include "trace/campus.h"
#include "trace/overlay.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

using namespace tradeplot;

namespace {

trace::CampusConfig scaled_campus(int scale, std::uint64_t seed) {
  trace::CampusConfig c;
  c.seed = seed;
  for (int* n : {&c.web_clients, &c.idle_hosts, &c.dns_clients, &c.ntp_clients, &c.web_servers,
                 &c.mail_servers, &c.scanners, &c.gnutella_hosts, &c.emule_hosts,
                 &c.bittorrent_hosts, &c.bittorrent_web_only})
    *n *= scale;
  return c;
}

struct WindowBuild {
  netflow::TraceSet flows;
  WindowExpect expect;
  double campus_ms = 0.0;
  double overlay_ms = 0.0;
  double oracle_ms = 0.0;
};

/// Generates window `w`: a fresh campus day seeded as make_day seeds day
/// `w`, with the window's one botnet overlaid, shifted to [w*D, (w+1)*D).
void build_window(const Workload& wl, std::uint64_t seed, int w, const netflow::TraceSet& storm,
                  const netflow::TraceSet& nugache, WindowBuild& out) {
  const std::uint64_t campus_seed = seed * 8191 + static_cast<std::uint64_t>(w);
  const bool is_storm = w % 2 == 0;

  auto t0 = Clock::now();
  const netflow::TraceSet campus =
      trace::generate_campus_trace(scaled_campus(wl.scale, campus_seed));
  auto t1 = Clock::now();
  util::Pcg32 overlay_rng(campus_seed, 0x0e1a);
  trace::OverlayResult overlay =
      trace::overlay_bots(campus, is_storm ? storm : nugache, overlay_rng);
  auto t2 = Clock::now();
  out.campus_ms = ms_between(t0, t1);
  out.overlay_ms = ms_between(t1, t2);

  const double shift = static_cast<double>(w) * kWindow;
  for (netflow::FlowRecord& f : overlay.combined.flows()) {
    if (f.start_time < 0.0 || f.start_time >= kWindow)
      throw std::runtime_error("generated flow outside its window");
    f.start_time += shift;
    f.end_time += shift;
  }
  overlay.combined.set_window(shift, shift + kWindow);

  t0 = Clock::now();
  detect::FeatureExtractorConfig fx;
  fx.is_internal = detect::default_internal_predicate;
  const detect::FindPlottersResult oracle =
      detect::find_plotters(detect::extract_features(overlay.combined, fx));
  out.oracle_ms = ms_between(t0, Clock::now());

  WindowExpect& e = out.expect;
  e.storm = is_storm;
  e.flows = overlay.combined.flows().size();
  for (const simnet::Ipv4 h : overlay.bot_hosts) e.bots.push_back(h.value());
  std::sort(e.bots.begin(), e.bots.end());
  for (const simnet::Ipv4 h : oracle.plotters) e.oracle_plotters.push_back(h.value());
  out.flows = std::move(overlay.combined);
}

/// Median with linear interpolation between order statistics.
double own_median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const double pos = 0.5 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return frac == 0.0 ? xs[lo] : xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/// The benchmark's own recount of one window: per-host flow and byte
/// counters; the median failed rate over hosts with a successful initiated
/// flow and the hosts whose rate exceeds it (ties kept only when nobody
/// exceeds it); then, over that reduced set, the paper's θ_vol (bytes sent
/// per flow below its median) and θ_churn (share of destinations first
/// contacted more than an hour after the host's first flow, below its
/// median).
void recount(std::span<const netflow::FlowRecord> flows, WindowExpect& e) {
  std::map<std::uint32_t, double> first_activity;
  std::unordered_map<std::uint64_t, double> first_contact;  // (src << 32 | dst) -> start
  const auto touch = [&](std::uint32_t h, double t) {
    const auto [it, fresh] = first_activity.emplace(h, t);
    if (!fresh) it->second = std::min(it->second, t);
  };
  for (const netflow::FlowRecord& f : flows) {
    const bool failed = f.state != netflow::FlowState::kEstablished;
    if (own_internal(f.src.value())) {
      HostCounts& c = e.hosts[f.src.value()];
      ++c.flows_initiated;
      c.flows_failed += failed ? 1 : 0;
      c.bytes_initiated += f.bytes_src;
      touch(f.src.value(), f.start_time);
      const std::uint64_t pair = (std::uint64_t{f.src.value()} << 32) | f.dst.value();
      const auto [it, fresh] = first_contact.emplace(pair, f.start_time);
      if (!fresh) it->second = std::min(it->second, f.start_time);
    }
    if (own_internal(f.dst.value()) && !failed) {
      HostCounts& c = e.hosts[f.dst.value()];
      ++c.flows_received;
      c.bytes_received += f.bytes_dst;
      touch(f.dst.value(), f.start_time);
    }
  }
  std::vector<double> rates;
  for (const auto& [h, c] : e.hosts)
    if (c.flows_initiated > c.flows_failed)
      rates.push_back(static_cast<double>(c.flows_failed) /
                      static_cast<double>(c.flows_initiated));
  if (rates.empty()) throw std::runtime_error("window without a successful initiator");
  e.median_failed = own_median(rates);
  for (const bool inclusive : {false, true}) {
    for (const auto& [h, c] : e.hosts) {
      if (c.flows_initiated <= c.flows_failed) continue;
      const double rate =
          static_cast<double>(c.flows_failed) / static_cast<double>(c.flows_initiated);
      if (rate > e.median_failed || (inclusive && rate == e.median_failed))
        e.reduced.push_back(h);
    }
    if (!e.reduced.empty()) break;
  }

  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> dsts;  // (distinct, late)
  for (const auto& [pair, t] : first_contact) {
    const auto h = static_cast<std::uint32_t>(pair >> 32);
    auto& [distinct, late] = dsts[h];
    ++distinct;
    late += t > first_activity.at(h) + kNewIpGrace ? 1 : 0;
  }
  std::vector<double> volume, churn;
  for (const std::uint32_t h : e.reduced) {
    const HostCounts& c = e.hosts.at(h);
    volume.push_back(static_cast<double>(c.bytes_initiated + c.bytes_received) /
                     static_cast<double>(c.flows_initiated + c.flows_received));
    const auto& [distinct, late] = dsts.at(h);
    churn.push_back(static_cast<double>(late) / static_cast<double>(distinct));
  }
  const double tau_vol = own_median(volume), tau_churn = own_median(churn);
  for (std::size_t i = 0; i < e.reduced.size(); ++i) {
    if (volume[i] < tau_vol) e.s_vol.push_back(e.reduced[i]);
    if (churn[i] < tau_churn) e.s_churn.push_back(e.reduced[i]);
  }
}

/// Runs `fn(i)` for i in [0, n) on up to resolve_threads() threads
/// (TRADEPLOT_THREADS, which run.py sets to 1 unless the caller sets it).
template <typename Fn>
void parallel_windows(int n, Fn fn) {
  const int width = std::max(1, std::min(n, static_cast<int>(util::resolve_threads())));
  std::vector<std::exception_ptr> errors(n);
  for (int first = 0; first < n; first += width) {
    std::vector<std::thread> threads;
    for (int i = first; i < std::min(n, first + width); ++i)
      threads.emplace_back([&, i] {
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace

SetupReport run_setup(const Workload& wl, std::uint64_t seed, const std::string& dir) {
  SetupReport r;
  const auto start = Clock::now();

  auto t0 = Clock::now();
  const netflow::TraceSet storm = botnet::generate_storm_trace({.seed = seed});
  const netflow::TraceSet nugache = botnet::generate_nugache_trace({.seed = seed});
  r.honeynet_ms = ms_between(t0, Clock::now());

  std::vector<WindowBuild> built(wl.windows);
  parallel_windows(wl.windows,
                   [&](int w) { build_window(wl, seed, w, storm, nugache, built[w]); });

  t0 = Clock::now();
  netflow::TraceSet all(0.0, wl.windows * kWindow);
  std::size_t total = 0;
  for (const WindowBuild& b : built) total += b.flows.flows().size();
  all.reserve_flows(total);
  for (WindowBuild& b : built) {
    std::vector<netflow::FlowRecord>& src = b.flows.flows();
    all.flows().insert(all.flows().end(), std::make_move_iterator(src.begin()),
                       std::make_move_iterator(src.end()));
    b.flows = netflow::TraceSet();
    r.campus_ms += b.campus_ms;
    r.overlay_ms += b.overlay_ms;
    r.oracle_ms += b.oracle_ms;
  }
  netflow::write_binary_columnar_file(dir + "/trace.cbin", all);
  r.write_ms = ms_between(t0, Clock::now());
  r.setup_s = ms_between(start, Clock::now()) / 1000.0;

  // Not part of set-up time: the recount only prepares the run's checks.
  Expectations e;
  e.workload = wl.name;
  e.seed = seed;
  e.total_flows = total;
  std::size_t offset = 0;
  for (WindowBuild& b : built) {
    recount(std::span(all.flows()).subspan(offset, b.expect.flows), b.expect);
    offset += b.expect.flows;
    e.windows.push_back(std::move(b.expect));
  }
  write_expectations(dir + "/expect.txt", e);
  r.flows = total;
  return r;
}

}  // namespace perfbench
