// WindowAccumulator against the independent batch extractor: seeded random
// flows fed to both must give bit-identical scalar features and the same
// interstitial multisets — under out-of-order and duplicate timestamps,
// responder-first hosts, extreme addresses, table growth, reset/refill, and
// budget shedding with sample-count ties.
#include "detect/accumulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "detect/features.h"
#include "detect/payload_codec.h"
#include "netflow/trace_set.h"
#include "util/error.h"
#include "util/rng.h"

namespace tradeplot::detect {
namespace {

struct Flow {
  simnet::Ipv4 src, dst;
  double t;
  std::uint64_t bytes_src, bytes_dst;
  bool failed;
};

using Predicate = bool (*)(simnet::Ipv4);

bool campus(simnet::Ipv4 a) { return default_internal_predicate(a); }
bool everyone(simnet::Ipv4) { return true; }

void feed(WindowAccumulator& acc, const std::vector<Flow>& flows, Predicate internal,
          std::size_t budget = 0) {
  for (const Flow& f : flows) {
    if (internal(f.src)) acc.apply_initiator(f.src, f.dst, f.t, f.bytes_src, f.failed, budget);
    if (internal(f.dst) && !f.failed) acc.apply_responder(f.dst, f.t, f.bytes_dst);
  }
}

FeatureMap oracle(const std::vector<Flow>& flows, Predicate internal) {
  netflow::TraceSet trace;
  for (const Flow& f : flows) {
    netflow::FlowRecord r;
    r.src = f.src;
    r.dst = f.dst;
    r.start_time = f.t;
    r.end_time = f.t + 1.0;
    r.bytes_src = f.bytes_src;
    r.bytes_dst = f.bytes_dst;
    r.state = f.failed ? netflow::FlowState::kAttempted : netflow::FlowState::kEstablished;
    trace.add_flow(r);
  }
  FeatureExtractorConfig cfg;
  cfg.is_internal = internal;
  return extract_features(trace, cfg);
}

std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

void expect_scalars_equal(const HostFeatures& a, const HostFeatures& b) {
  EXPECT_EQ(a.host, b.host);
  EXPECT_EQ(a.flows_initiated, b.flows_initiated);
  EXPECT_EQ(a.flows_failed, b.flows_failed);
  EXPECT_EQ(a.flows_received, b.flows_received);
  EXPECT_EQ(a.bytes_sent_initiated, b.bytes_sent_initiated);
  EXPECT_EQ(a.bytes_sent_received, b.bytes_sent_received);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.first_activity),
            std::bit_cast<std::uint64_t>(b.first_activity));
}

/// Scalars bit-identical, interstitials equal as sorted multisets.
void expect_matches_oracle(const FeatureMap& got, const FeatureMap& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [host, w] : want) {
    SCOPED_TRACE(host.to_string());
    ASSERT_TRUE(got.contains(host));
    const HostFeatures& g = got.at(host);
    expect_scalars_equal(g, w);
    EXPECT_EQ(g.distinct_dsts, w.distinct_dsts);
    EXPECT_EQ(g.dsts_after_first_hour, w.dsts_after_first_hour);
    EXPECT_EQ(sorted(g.interstitials), sorted(w.interstitials));
  }
}

/// Random flows over a small host/destination population: start times drawn
/// from a coarse grid (many exact duplicates) and then shuffled, so arrival
/// order is far from time order. Some internal hosts only ever answer, or
/// answer before they first initiate.
std::vector<Flow> random_flows(std::uint64_t seed, std::size_t n, std::size_t hosts) {
  util::Pcg32 rng(seed);
  std::vector<Flow> flows;
  flows.reserve(n);
  const auto internal = [&] {
    const auto h = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(hosts)));
    return simnet::Ipv4(128, 2, static_cast<std::uint8_t>(h >> 8), static_cast<std::uint8_t>(h));
  };
  for (std::size_t i = 0; i < n; ++i) {
    Flow f;
    f.src = rng.chance(0.85) ? internal() : simnet::Ipv4(198, 51, 100, 7);
    f.dst = rng.chance(0.3) ? internal()
                            : simnet::Ipv4(203, 0, static_cast<std::uint8_t>(rng.uniform_int(0, 3)),
                                           static_cast<std::uint8_t>(rng.uniform_int(0, 40)));
    f.t = 30.0 * static_cast<double>(rng.uniform_int(0, 400));  // 0 .. 12000 s
    if (rng.chance(0.2)) f.t += rng.uniform(0.0, 30.0);
    f.bytes_src = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    f.bytes_dst = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    f.failed = rng.chance(0.25);
    flows.push_back(f);
  }
  rng.shuffle(flows);
  return flows;
}

TEST(WindowAccumulator, MatchesBatchExtractorOnShuffledFlowsWithDuplicateTimes) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Flow> flows = random_flows(seed, 20000, 300);
    WindowAccumulator acc;
    feed(acc, flows, campus);
    expect_matches_oracle(acc.finalize(3600.0), oracle(flows, campus));
  }
}

TEST(WindowAccumulator, MatchesBatchExtractorOnTimeOrderedFlows) {
  std::vector<Flow> flows = random_flows(11, 20000, 300);
  std::stable_sort(flows.begin(), flows.end(),
                   [](const Flow& a, const Flow& b) { return a.t < b.t; });
  WindowAccumulator acc;
  feed(acc, flows, campus);
  expect_matches_oracle(acc.finalize(3600.0), oracle(flows, campus));
}

TEST(WindowAccumulator, HostSeenFirstAsResponder) {
  const simnet::Ipv4 host(128, 2, 9, 9), peer(203, 0, 113, 1), other(128, 2, 9, 10);
  const std::vector<Flow> flows = {
      {other, host, 50.0, 10, 700, false},   // host answers first...
      {host, peer, 4000.0, 20, 30, false},   // ...and initiates after the grace
      {host, peer, 4100.0, 20, 30, true},
      {host, other, 4200.0, 20, 30, false},  // ...and `other` answers in turn
  };
  WindowAccumulator acc;
  feed(acc, flows, campus);
  const FeatureMap got = acc.finalize(3600.0);
  expect_matches_oracle(got, oracle(flows, campus));
  const HostFeatures& f = got.at(host);
  EXPECT_EQ(f.first_activity, 50.0);
  EXPECT_EQ(f.flows_received, 1u);
  EXPECT_EQ(f.distinct_dsts, 2u);
  EXPECT_EQ(f.dsts_after_first_hour, 2u);  // both first contacted after 50 + 3600
  EXPECT_EQ(f.interstitials, std::vector<double>{100.0});
}

TEST(WindowAccumulator, AcceptsEveryAddressUnderPermissiveInternal) {
  const simnet::Ipv4 zero(0u), ones(0xffffffffu), mid(128, 2, 0, 1);
  std::vector<Flow> flows;
  for (int i = 0; i < 50; ++i) {
    const double t = 10.0 * (i % 7) + (i % 3);
    flows.push_back({zero, ones, t, 1, 2, i % 5 == 0});
    flows.push_back({ones, zero, t + 1.0, 3, 4, false});
    flows.push_back({mid, zero, t + 2.0, 5, 6, false});
    flows.push_back({zero, zero, t + 3.0, 7, 8, false});  // a host talking to itself
  }
  util::Pcg32 rng(7);
  rng.shuffle(flows);
  WindowAccumulator acc;
  feed(acc, flows, everyone);
  const FeatureMap got = acc.finalize(3600.0);
  expect_matches_oracle(got, oracle(flows, everyone));
  EXPECT_EQ(acc.host_count(), 3u);
  EXPECT_TRUE(got.contains(zero));
  EXPECT_TRUE(got.contains(ones));
}

TEST(WindowAccumulator, TableGrowsPastSixtyFourThousandHosts) {
  // 70k distinct internal hosts, each initiating twice and answering once:
  // the host table doubles many times while slots stay dense.
  std::vector<Flow> flows;
  constexpr std::uint32_t kHosts = 70000;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    const simnet::Ipv4 host((10u << 24) | (h * 2654435761u >> 8));
    const simnet::Ipv4 peer(198, 51, 100, static_cast<std::uint8_t>(h));
    flows.push_back({host, peer, static_cast<double>(h % 5000), 100, 0, false});
    flows.push_back({host, peer, static_cast<double>(h % 5000) + 7.5, 100, 0, h % 3 == 0});
    flows.push_back({peer, host, 9000.0, 0, 40, false});
  }
  const Predicate internal = [](simnet::Ipv4 a) { return (a.value() >> 24) == 10; };
  WindowAccumulator acc;
  feed(acc, flows, internal);
  const FeatureMap got = acc.finalize(3600.0);
  const FeatureMap want = oracle(flows, internal);
  ASSERT_GT(want.size(), 65536u);
  EXPECT_EQ(acc.host_count(), want.size());
  expect_matches_oracle(got, want);
}

TEST(WindowAccumulator, ResetThenRefillLeaksNoState) {
  const std::vector<Flow> first = random_flows(21, 8000, 200);
  const std::vector<Flow> second = random_flows(22, 3000, 120);
  WindowAccumulator acc;
  feed(acc, first, campus, 5000);  // sheds in the first window only
  static_cast<void>(acc.finalize(3600.0));
  ASSERT_GT(acc.hosts_shed(), 0u);
  acc.reset();
  EXPECT_EQ(acc.host_count(), 0u);
  EXPECT_EQ(acc.timing_samples(), 0u);
  EXPECT_EQ(acc.hosts_shed(), 0u);
  EXPECT_EQ(acc.timing_samples_shed(), 0u);
  feed(acc, second, campus);
  expect_matches_oracle(acc.finalize(3600.0), oracle(second, campus));
}

TEST(WindowAccumulator, ShedSetFollowsSamplesThenAddress) {
  // Ten hosts, first seen in an order unrelated to their addresses, five
  // samples each, round robin. The budget is crossed on the very last
  // sample, when all ten tie at five samples: the shed set must be the three
  // lowest addresses, not the first or last seen.
  const std::vector<int> first_seen = {5, 9, 2, 7, 1, 10, 3, 8, 6, 4};
  std::vector<Flow> flows;
  for (int round = 0; round < 5; ++round)
    for (const int h : first_seen)
      flows.push_back({simnet::Ipv4(128, 2, 0, static_cast<std::uint8_t>(h)),
                       simnet::Ipv4(203, 0, 113, static_cast<std::uint8_t>(round)),
                       100.0 * round + h, 10, 0, false});
  WindowAccumulator acc;
  feed(acc, flows, campus, 49);  // 50 samples; target 49 - 12 = 37
  EXPECT_EQ(acc.hosts_shed(), 3u);
  EXPECT_EQ(acc.timing_samples_shed(), 15u);
  EXPECT_EQ(acc.timing_samples(), 35u);

  const FeatureMap got = acc.finalize(3600.0);
  const FeatureMap want = oracle(flows, campus);
  for (const auto& [host, w] : want) {
    SCOPED_TRACE(host.to_string());
    const HostFeatures& g = got.at(host);
    expect_scalars_equal(g, w);  // scalar evidence survives shedding
    const bool shed = (host.value() & 0xff) <= 3;
    if (shed) {
      EXPECT_EQ(g.distinct_dsts, 0u);
      EXPECT_TRUE(g.interstitials.empty());
    } else {
      EXPECT_EQ(g.distinct_dsts, w.distinct_dsts);
      EXPECT_EQ(sorted(g.interstitials), sorted(w.interstitials));
    }
  }
}

TEST(WindowAccumulator, SheddingKeepsSurvivorsExact) {
  // After repeated shedding the surviving hosts' timing evidence must still
  // be exactly the oracle's: compaction removes only the victims' entries.
  const std::vector<Flow> flows = random_flows(31, 30000, 400);
  WindowAccumulator acc;
  feed(acc, flows, campus, 4000);
  ASSERT_GT(acc.hosts_shed(), 0u);
  const FeatureMap got = acc.finalize(3600.0);
  const FeatureMap want = oracle(flows, campus);
  ASSERT_EQ(got.size(), want.size());
  std::size_t survivors = 0;
  for (const auto& [host, w] : want) {
    const HostFeatures& g = got.at(host);
    expect_scalars_equal(g, w);
    if (g.distinct_dsts == 0 && w.distinct_dsts > 0) continue;  // shed
    ++survivors;
    EXPECT_EQ(g.distinct_dsts, w.distinct_dsts);
    EXPECT_EQ(g.dsts_after_first_hour, w.dsts_after_first_hour);
    EXPECT_EQ(sorted(g.interstitials), sorted(w.interstitials));
  }
  EXPECT_GT(survivors, 0u);
}

TEST(WindowAccumulator, ShedCompactionAcrossLogChunksThenRefill) {
  // 342 hosts, 64 samples each, round robin in a first-seen order unrelated
  // to address. The budget (21887) is crossed on the last sample, with every
  // host tied: the 86 lowest addresses are shed (target 16416), leaving
  // exactly 16384 samples — the log compacted across several chunks and cut
  // on a chunk boundary. More flows then append past that boundary.
  constexpr int kHosts = 342, kRounds = 64;
  std::vector<int> order(kHosts);
  for (int h = 0; h < kHosts; ++h) order[h] = (h * 97) % kHosts;  // 97 is coprime to 342
  const auto host = [](int h) {
    return simnet::Ipv4(128, 2, static_cast<std::uint8_t>(h >> 8), static_cast<std::uint8_t>(h));
  };
  std::vector<Flow> flows;
  for (int round = 0; round < kRounds; ++round)
    for (const int h : order)
      flows.push_back({host(h), simnet::Ipv4(203, 0, 113, static_cast<std::uint8_t>(round % 7)),
                       100.0 * round + 0.01 * h, 10, 0, false});
  WindowAccumulator acc;
  feed(acc, flows, campus, 21887);
  ASSERT_EQ(acc.hosts_shed(), 86u);
  ASSERT_EQ(acc.timing_samples(), 16384u);

  std::vector<Flow> more;
  for (int round = kRounds; round < kRounds + 3; ++round)
    for (const int h : order)
      more.push_back({host(h), simnet::Ipv4(203, 0, 113, static_cast<std::uint8_t>(round % 7)),
                      100.0 * round + 0.01 * h, 10, 0, false});
  feed(acc, more, campus, 21887);
  EXPECT_EQ(acc.hosts_shed(), 86u);
  EXPECT_EQ(acc.timing_samples(), 16384u + 3u * (kHosts - 86));

  flows.insert(flows.end(), more.begin(), more.end());
  const FeatureMap got = acc.finalize(3600.0);
  const FeatureMap want = oracle(flows, campus);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [h, w] : want) {
    SCOPED_TRACE(h.to_string());
    const HostFeatures& g = got.at(h);
    expect_scalars_equal(g, w);
    if (static_cast<int>(h.value() & 0xffff) < 86) {
      EXPECT_EQ(g.distinct_dsts, 0u);
      EXPECT_TRUE(g.interstitials.empty());
    } else {
      EXPECT_EQ(g.distinct_dsts, w.distinct_dsts);
      EXPECT_EQ(g.dsts_after_first_hour, w.dsts_after_first_hour);
      EXPECT_EQ(sorted(g.interstitials), sorted(w.interstitials));
    }
  }
}

TEST(WindowAccumulator, EncodeDecodeEncodeIsByteIdentical) {
  const std::vector<Flow> flows = random_flows(41, 10000, 250);
  WindowAccumulator acc;
  feed(acc, flows, campus, 6000);
  PayloadWriter first;
  acc.encode(first);

  WindowAccumulator restored;
  PayloadReader r(first.bytes());
  restored.decode(r);
  EXPECT_TRUE(r.exhausted());
  PayloadWriter second;
  restored.encode(second);
  EXPECT_EQ(first.bytes(), second.bytes());
  EXPECT_EQ(restored.host_count(), acc.host_count());
  EXPECT_EQ(restored.timing_samples(), acc.timing_samples());
  EXPECT_EQ(restored.hosts_shed(), acc.hosts_shed());

  // The restored state finalizes to the same features.
  const FeatureMap a = acc.finalize(3600.0);
  const FeatureMap b = restored.finalize(3600.0);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [host, fa] : a) {
    const HostFeatures& fb = b.at(host);
    expect_scalars_equal(fa, fb);
    EXPECT_EQ(fa.distinct_dsts, fb.distinct_dsts);
    EXPECT_EQ(fa.dsts_after_first_hour, fb.dsts_after_first_hour);
    EXPECT_EQ(fa.interstitials, fb.interstitials);
  }
}

TEST(WindowAccumulator, EncodingDependsOnlyOnFlowSequence) {
  // Two accumulators fed the same flows, one of them after an unrelated
  // window and a reset, encode the same bytes.
  const std::vector<Flow> flows = random_flows(51, 5000, 150);
  WindowAccumulator fresh, reused;
  feed(reused, random_flows(52, 5000, 150), campus);
  reused.reset();
  feed(fresh, flows, campus);
  feed(reused, flows, campus);
  PayloadWriter a, b;
  fresh.encode(a);
  reused.encode(b);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(WindowAccumulator, DecodeRejectsInconsistentImages) {
  const auto host_record = [](PayloadWriter& w, std::uint32_t host, std::uint64_t samples) {
    w.put(host);
    w.put(std::uint8_t{1});
    w.put(std::uint8_t{0});
    for (int i = 0; i < 7; ++i) w.put(std::uint64_t{0});
    w.put(0.0);
    w.put(std::uint64_t{0});  // interstitials
    w.put(std::uint64_t{samples > 0 ? 1u : 0u});
    if (samples > 0) {
      w.put(std::uint32_t{7});
      w.put_times(std::vector<double>(samples, 1.0));
    }
  };
  const auto decode = [](const PayloadWriter& w) {
    WindowAccumulator acc;
    PayloadReader r(w.bytes());
    acc.decode(r);
  };
  {
    PayloadWriter w;  // header claims 5 samples, records hold 3
    for (const std::uint64_t v : {5u, 0u, 0u, 1u}) w.put(std::uint64_t{v});
    host_record(w, 42, 3);
    EXPECT_THROW(decode(w), util::ParseError);
  }
  {
    PayloadWriter w;  // the same host twice
    for (const std::uint64_t v : {2u, 0u, 0u, 2u}) w.put(std::uint64_t{v});
    host_record(w, 42, 1);
    host_record(w, 42, 1);
    EXPECT_THROW(decode(w), util::ParseError);
  }
  {
    PayloadWriter w;  // consistent: decodes
    for (const std::uint64_t v : {4u, 0u, 0u, 2u}) w.put(std::uint64_t{v});
    host_record(w, 42, 1);
    host_record(w, 0, 3);
    EXPECT_NO_THROW(decode(w));
  }
}

}  // namespace
}  // namespace tradeplot::detect
