#include "detect/accumulator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <tuple>
#include <utility>

#include "detect/payload_codec.h"
#include "util/error.h"

namespace tradeplot::detect {

namespace {

constexpr std::size_t kMinTableSize = 1024;

/// Fibonacci hashing: the top bits of the product spread the dense campus
/// address ranges evenly over a power-of-two table.
std::size_t bucket_of(std::uint32_t addr, std::size_t table_size) {
  const auto bits = static_cast<unsigned>(std::countr_zero(table_size));
  return static_cast<std::size_t>((addr * 0x9e3779b97f4a7c15ull) >> (64 - bits));
}

/// Start-time order with -0.0 before +0.0, so entries that compare equal are
/// bit-identical and every sort of a group yields the same bytes.
bool time_before(double a, double b) {
  return a < b || (a == b && std::signbit(a) && !std::signbit(b));
}

}  // namespace

std::uint32_t WindowAccumulator::touch(simnet::Ipv4 host, double t) {
  if ((slots_.size() + 1) * 2 > table_.size()) grow_table();
  const std::uint32_t addr = host.value();
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = bucket_of(addr, table_.size());; i = (i + 1) & mask) {
    const std::uint64_t word = table_[i];
    if (word == 0) {
      const auto slot = static_cast<std::uint32_t>(slots_.size());
      table_[i] = std::uint64_t{addr} << 32 | (std::uint64_t{slot} + 1);
      HostSlot& h = slots_.emplace_back();
      h.host = host;
      h.first_activity = t;
      return slot;
    }
    if ((word >> 32) == addr) {
      const auto slot = static_cast<std::uint32_t>(word) - 1;
      HostSlot& h = slots_[slot];
      h.first_activity = std::min(h.first_activity, t);
      return slot;
    }
  }
}

void WindowAccumulator::grow_table() {
  table_.assign(std::max(kMinTableSize, table_.size() * 2), 0);
  const std::size_t mask = table_.size() - 1;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const std::uint32_t addr = slots_[s].host.value();
    std::size_t i = bucket_of(addr, table_.size());
    while (table_[i] != 0) i = (i + 1) & mask;
    table_[i] = std::uint64_t{addr} << 32 | (std::uint64_t{s} + 1);
  }
}

void WindowAccumulator::apply_initiator(simnet::Ipv4 src, simnet::Ipv4 dst, double t,
                                        std::uint64_t bytes_src, bool failed,
                                        std::size_t timing_budget) {
  const std::uint32_t slot = touch(src, t);
  HostSlot& h = slots_[slot];
  h.flows_initiated += 1;
  if (failed) h.flows_failed += 1;
  h.bytes_sent_initiated += bytes_src;
  // Log the raw start time; churn and interstitials are derived from the
  // sorted per-destination times at window close, so late arrivals land in
  // their true position instead of producing spurious |gap| samples that
  // diverge from the batch extractor.
  //
  // A host whose timing state was shed this window stops buffering (its
  // scalar counters above stay exact); everyone else counts toward the
  // window's timing budget.
  if (!h.timing_shed) {
    log_.push_back({slot, dst.value(), t});
    ++h.timing_samples;
    ++timing_samples_;
    if (timing_budget != 0 && timing_samples_ > timing_budget)
      shed_timing_state(timing_budget);
  }
}

void WindowAccumulator::apply_responder(simnet::Ipv4 dst, double t,
                                        std::uint64_t bytes_dst) {
  HostSlot& h = slots_[touch(dst, t)];
  h.flows_received += 1;
  h.bytes_sent_received += bytes_dst;
}

void WindowAccumulator::shed_timing_state(std::size_t timing_budget) {
  // Lowest evidence first: hosts with the fewest buffered timing samples
  // have the least interstitial/churn signal to lose. Ties break by
  // address so the shed set is deterministic for a given flow sequence.
  std::vector<std::tuple<std::size_t, simnet::Ipv4, std::uint32_t>> candidates;
  candidates.reserve(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const HostSlot& h = slots_[s];
    if (!h.timing_shed && h.timing_samples > 0)
      candidates.emplace_back(h.timing_samples, h.host, static_cast<std::uint32_t>(s));
  }
  std::sort(candidates.begin(), candidates.end());

  // Hysteresis: shed down to ~3/4 of the budget so one more sample does not
  // immediately re-trigger a full scan-and-sort.
  const std::size_t target = timing_budget - timing_budget / 4;
  for (const auto& [samples, host, slot] : candidates) {
    if (timing_samples_ <= target) break;
    HostSlot& h = slots_[slot];
    timing_samples_ -= samples;
    timing_samples_shed_ += samples;
    h.timing_samples = 0;
    h.timing_shed = true;
    ++hosts_shed_;
  }
  // Compact the victims' entries out of the log; earlier victims have none.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const LogEntry& e = log_[i];
    if (!slots_[e.slot].timing_shed) log_[kept++] = e;
  }
  log_.truncate(kept);
}

void WindowAccumulator::group_log() const {
  // Stable counting sort by slot: offsets_[s + 1] starts as host s's first
  // position and is bumped per entry, ending as host s + 1's first position.
  const std::size_t hosts = slots_.size();
  offsets_.assign(hosts + 1, 0);
  for (std::size_t s = 0; s + 1 < hosts; ++s)
    offsets_[s + 2] = offsets_[s + 1] + slots_[s].timing_samples;
  if (log_.size() > grouped_.capacity()) {
    grouped_ = std::vector<LogEntry>();  // free before allocating: no transient double
    grouped_.reserve(log_.size());
  }
  grouped_.resize(log_.size());
  log_.for_each_run([this](const LogEntry* run, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) grouped_[offsets_[run[i].slot + 1]++] = run[i];
  });

  // Within a host: by destination, ties in arrival order (the slot field
  // becomes the arrival rank), then each destination's times sorted — but
  // only groups that arrived out of time order need that second sort.
  const auto by_dst = [](const LogEntry& a, const LogEntry& b) {
    return (std::uint64_t{a.dst} << 32 | a.slot) < (std::uint64_t{b.dst} << 32 | b.slot);
  };
  const auto by_time = [](const LogEntry& a, const LogEntry& b) {
    return time_before(a.t, b.t);
  };
  for (std::size_t s = 0; s < hosts; ++s) {
    LogEntry* const begin = grouped_.data() + offsets_[s];
    LogEntry* const end = grouped_.data() + offsets_[s + 1];
    if (end - begin < 2) continue;
    for (LogEntry* e = begin; e != end; ++e) e->slot = static_cast<std::uint32_t>(e - begin);
    if (!std::is_sorted(begin, end, by_dst)) std::sort(begin, end, by_dst);
    for (LogEntry* g = begin; g != end;) {
      LogEntry* const group_end =
          std::find_if(g, end, [dst = g->dst](const LogEntry& e) { return e.dst != dst; });
      if (!std::is_sorted(g, group_end, by_time)) std::sort(g, group_end, by_time);
      g = group_end;
    }
  }
}

std::size_t WindowAccumulator::count_groups(const LogEntry* begin, const LogEntry* end) {
  std::size_t groups = 0;
  for (const LogEntry* e = begin; e != end; ++e) groups += e == begin || e->dst != e[-1].dst;
  return groups;
}

FeatureMap WindowAccumulator::finalize(double grace) {
  group_log();
  FeatureMap features;
  features.reserve(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const HostSlot& h = slots_[s];
    HostFeatures f;
    f.host = h.host;
    f.flows_initiated = h.flows_initiated;
    f.flows_failed = h.flows_failed;
    f.flows_received = h.flows_received;
    f.bytes_sent_initiated = h.bytes_sent_initiated;
    f.bytes_sent_received = h.bytes_sent_received;
    f.first_activity = h.first_activity;

    // One linear pass over the host's (dst, t)-sorted entries: a new group
    // is a distinct destination, its first time is its first contact, and
    // consecutive times within it are the interstitials.
    const LogEntry* const begin = grouped_.data() + offsets_[s];
    const LogEntry* const end = grouped_.data() + offsets_[s + 1];
    const std::size_t groups = count_groups(begin, end);
    f.distinct_dsts = groups;
    f.interstitials.reserve(static_cast<std::size_t>(end - begin) - groups);
    const double horizon = f.first_activity + grace;
    for (const LogEntry* e = begin; e != end; ++e) {
      if (e == begin || e->dst != e[-1].dst) {
        if (e->t > horizon) f.dsts_after_first_hour += 1;
      } else {
        f.interstitials.push_back(e->t - e[-1].t);
      }
    }
    features.emplace(h.host, std::move(f));
  }
  return features;
}

void WindowAccumulator::reset() {
  std::fill(table_.begin(), table_.end(), 0);
  slots_.clear();
  log_.truncate(0);
  timing_samples_ = 0;
  hosts_shed_ = 0;
  timing_samples_shed_ = 0;
}

void WindowAccumulator::encode(PayloadWriter& w) const {
  group_log();
  w.put(static_cast<std::uint64_t>(timing_samples_));
  w.put(static_cast<std::uint64_t>(hosts_shed_));
  w.put(static_cast<std::uint64_t>(timing_samples_shed_));
  w.put(static_cast<std::uint64_t>(slots_.size()));
  std::vector<double> times;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const HostSlot& h = slots_[s];
    w.put(h.host.value());
    w.put(std::uint8_t{1});  // seen
    w.put(static_cast<std::uint8_t>(h.timing_shed));
    w.put(static_cast<std::uint64_t>(h.flows_initiated));
    w.put(static_cast<std::uint64_t>(h.flows_failed));
    w.put(static_cast<std::uint64_t>(h.flows_received));
    w.put(h.bytes_sent_initiated);
    w.put(h.bytes_sent_received);
    w.put(std::uint64_t{0});  // distinct_dsts: derived at finalize
    w.put(std::uint64_t{0});  // dsts_after_first_hour: derived at finalize
    w.put(h.first_activity);
    w.put(std::uint64_t{0});  // interstitials: derived at finalize
    const LogEntry* const begin = grouped_.data() + offsets_[s];
    const LogEntry* const end = grouped_.data() + offsets_[s + 1];
    w.put(static_cast<std::uint64_t>(count_groups(begin, end)));
    for (const LogEntry* g = begin; g != end;) {
      times.clear();
      const LogEntry* e = g;
      for (; e != end && e->dst == g->dst; ++e) times.push_back(e->t);
      w.put(g->dst);
      w.put_times(times);
      g = e;
    }
  }
}

void WindowAccumulator::decode(PayloadReader& r) {
  WindowAccumulator next;
  const auto timing_samples = r.take<std::uint64_t>();
  const auto hosts_shed = r.take<std::uint64_t>();
  const auto samples_shed = r.take<std::uint64_t>();
  const auto host_count = r.take<std::uint64_t>();
  for (std::uint64_t i = 0; i < host_count; ++i) {
    const simnet::Ipv4 host(r.take<std::uint32_t>());
    static_cast<void>(r.take<std::uint8_t>());  // seen: always set on save
    const bool shed = r.take<std::uint8_t>() != 0;
    const std::size_t before = next.slots_.size();
    const std::uint32_t slot = next.touch(host, 0.0);
    if (next.slots_.size() == before) throw util::ParseError("checkpoint: duplicate host");
    HostSlot& h = next.slots_[slot];
    h.timing_shed = shed;
    h.flows_initiated = static_cast<std::size_t>(r.take<std::uint64_t>());
    h.flows_failed = static_cast<std::size_t>(r.take<std::uint64_t>());
    h.flows_received = static_cast<std::size_t>(r.take<std::uint64_t>());
    h.bytes_sent_initiated = r.take<std::uint64_t>();
    h.bytes_sent_received = r.take<std::uint64_t>();
    static_cast<void>(r.take<std::uint64_t>());  // distinct_dsts
    static_cast<void>(r.take<std::uint64_t>());  // dsts_after_first_hour
    h.first_activity = r.take<double>();
    if (r.take<std::uint64_t>() != 0)
      throw util::ParseError("checkpoint: finalized interstitials in an open window");
    const auto dst_count = r.take<std::uint64_t>();
    for (std::uint64_t d = 0; d < dst_count; ++d) {
      const std::uint32_t dst = r.take<std::uint32_t>();
      const auto n = r.take<std::uint64_t>();
      for (std::uint64_t k = 0; k < n; ++k) next.log_.push_back({slot, dst, r.take<double>()});
      h.timing_samples += static_cast<std::size_t>(n);
    }
    if (shed && h.timing_samples != 0)
      throw util::ParseError("checkpoint: shed host still holds timing samples");
    next.timing_samples_ += h.timing_samples;
  }
  if (next.timing_samples_ != timing_samples)
    throw util::ParseError("checkpoint: timing sample count mismatch");
  next.hosts_shed_ = static_cast<std::size_t>(hosts_shed);
  next.timing_samples_shed_ = static_cast<std::size_t>(samples_shed);
  *this = std::move(next);
}

}  // namespace tradeplot::detect
