// ShardedDetector (src/shard/).
//
// The contracts under test, in the order the subsystem makes them:
//   * HashRing — deterministic, balanced, ConfigError on degenerate
//     geometry, short-circuit at one shard;
//   * shards == 1 — bit-identical verdicts to StreamingDetector;
//   * shards > 1 — every stage's survivor set equals the single detector's;
//   * equality — with no timing budget, at every shard and thread count,
//     the verdicts and features equal StreamingDetector's bit for bit and
//     equal batch find_plotters over the same window's flows, below and
//     above 1024 hosts;
//   * timing budget — a budget below the shard count still sheds;
//   * checkpoints — kill-and-restore, cut on or inside a batch, resumes to
//     the single detector's verdicts; geometry mismatches are ConfigError,
//     corruption is ParseError.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "detect/features.h"
#include "detect/find_plotters.h"
#include "detect/streaming.h"
#include "netflow/flow_batch.h"
#include "shard/ring.h"
#include "shard/sharded_detector.h"
#include "util/error.h"
#include "util/rng.h"

namespace tradeplot::shard {
namespace {

bool is_internal(simnet::Ipv4 a) { return (a.value() >> 24) == 10; }

// ---------------------------------------------------------------------------
// Workload: detection windows with a separable population. "Bot" hosts
// run a 60 s timer with millisecond jitter and fail often (they pass data
// reduction and cluster tightly under θ_hm); "human" hosts browse with
// lognormal gaps and mostly succeed. Every host revisits a small destination
// pool so it accrues enough interstitial samples to be θ_hm-eligible.

struct Event {
  double t;
  simnet::Ipv4 src, dst;
  std::uint64_t bytes_src, bytes_dst;
  bool failed;
};

/// One window's flows, starting at `offset` seconds; each call is one batch
/// sequence, so a window's batches can be fed to batch extraction alone.
std::vector<netflow::FlowBatch> make_window(std::size_t hosts, std::size_t bots,
                                            std::uint64_t seed, double offset = 0.0) {
  util::Pcg32 rng(seed);
  std::vector<Event> events;
  for (std::size_t h = 0; h < hosts; ++h) {
    const bool bot = h < bots;
    const simnet::Ipv4 src(10, static_cast<std::uint8_t>(h >> 8),
                           static_cast<std::uint8_t>(h), 1);
    std::array<simnet::Ipv4, 6> pool{};
    for (std::size_t d = 0; d < pool.size(); ++d) {
      // One internal destination per host keeps the responder path hot.
      pool[d] = d == 0 ? simnet::Ipv4(10, static_cast<std::uint8_t>((h + 7) >> 8),
                                      static_cast<std::uint8_t>(h + 7), 2)
                       : simnet::Ipv4(198, static_cast<std::uint8_t>(h % 251),
                                      static_cast<std::uint8_t>(d), 7);
    }
    double t = offset + rng.uniform(0.0, 600.0);
    for (int i = 0; i < 130; ++i) {
      t += bot ? 60.0 + rng.uniform(-0.05, 0.05) : rng.lognormal(3.6, 1.0);
      Event e;
      e.t = t;
      e.src = src;
      e.dst = pool[static_cast<std::size_t>(i) % pool.size()];
      e.bytes_src = bot ? 250 : 4000 + static_cast<std::uint64_t>(rng.uniform_int(0, 40000));
      e.bytes_dst = bot ? 120 : 9000 + static_cast<std::uint64_t>(rng.uniform_int(0, 90000));
      e.failed = rng.uniform(0.0, 1.0) < (bot ? 0.45 : 0.05);
      events.push_back(e);
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t != b.t ? a.t < b.t : a.src < b.src;
  });

  std::vector<netflow::FlowBatch> batches;
  batches.emplace_back();
  for (const Event& e : events) {
    if (batches.back().full()) batches.emplace_back();
    netflow::FlowBatch& b = batches.back();
    const std::size_t row = b.append_default();
    b.src()[row] = e.src;
    b.dst()[row] = e.dst;
    b.start_time()[row] = e.t;
    b.end_time()[row] = e.t + 0.5;
    b.bytes_src()[row] = e.bytes_src;
    b.bytes_dst()[row] = e.bytes_dst;
    b.state()[row] = e.failed ? netflow::FlowState::kAttempted
                              : netflow::FlowState::kEstablished;
  }
  return batches;
}

detect::StreamingConfig streaming_config() {
  detect::StreamingConfig cfg;
  cfg.is_internal = is_internal;
  return cfg;
}

ShardedConfig sharded_config(std::size_t shards) {
  ShardedConfig cfg;
  cfg.shards = shards;
  cfg.is_internal = is_internal;
  return cfg;
}

std::vector<detect::WindowVerdict> run_sharded(const ShardedConfig& cfg,
                                               const std::vector<netflow::FlowBatch>& batches) {
  std::vector<detect::WindowVerdict> verdicts;
  ShardedDetector detector(cfg, [&](const detect::WindowVerdict& v) { verdicts.push_back(v); });
  for (const netflow::FlowBatch& b : batches) detector.ingest(b);
  detector.flush();
  return verdicts;
}

std::vector<detect::WindowVerdict> run_sharded(std::size_t shards,
                                               const std::vector<netflow::FlowBatch>& batches) {
  return run_sharded(sharded_config(shards), batches);
}

std::vector<detect::WindowVerdict> run_streaming(
    const std::vector<netflow::FlowBatch>& batches) {
  std::vector<detect::WindowVerdict> verdicts;
  detect::StreamingDetector detector(
      streaming_config(), [&](const detect::WindowVerdict& v) { verdicts.push_back(v); });
  for (const netflow::FlowBatch& b : batches) detector.ingest(b);
  detector.flush();
  return verdicts;
}

std::vector<double> sorted_gaps(const detect::HostFeatures& f) {
  std::vector<double> g = f.interstitials;
  std::sort(g.begin(), g.end());
  return g;
}

/// Every FindPlottersResult field. The θ_hm work counters that depend on
/// the cache's history (kernel evaluations vs cache hits) are compared only
/// when both sides ran with the same cache history.
void expect_results_equal(const detect::FindPlottersResult& a,
                          const detect::FindPlottersResult& b, bool same_cache_history) {
  EXPECT_EQ(a.input, b.input);
  EXPECT_EQ(a.reduced, b.reduced);
  EXPECT_EQ(a.s_vol, b.s_vol);
  EXPECT_EQ(a.s_churn, b.s_churn);
  EXPECT_EQ(a.vol_or_churn, b.vol_or_churn);
  EXPECT_EQ(a.plotters, b.plotters);
  EXPECT_EQ(a.hm.flagged, b.hm.flagged);
  EXPECT_EQ(a.hm.tau_hm, b.hm.tau_hm);
  EXPECT_EQ(a.hm.skipped, b.hm.skipped);
  EXPECT_EQ(a.hm.degenerate, b.hm.degenerate);
  EXPECT_EQ(a.hm.degraded, b.hm.degraded);
  ASSERT_EQ(a.hm.clusters.size(), b.hm.clusters.size());
  for (std::size_t c = 0; c < a.hm.clusters.size(); ++c) {
    EXPECT_EQ(a.hm.clusters[c].members, b.hm.clusters[c].members);
    EXPECT_EQ(a.hm.clusters[c].diameter, b.hm.clusters[c].diameter);
    EXPECT_EQ(a.hm.clusters[c].kept, b.hm.clusters[c].kept);
  }
  const detect::HmPruneStats& pa = a.hm.prune;
  const detect::HmPruneStats& pb = b.hm.prune;
  EXPECT_EQ(pa.used, pb.used);
  EXPECT_EQ(pa.pairs_total, pb.pairs_total);
  EXPECT_EQ(pa.resolved_pairs, pb.resolved_pairs);
  EXPECT_EQ(pa.pivots, pb.pivots);
  EXPECT_EQ(pa.scanned, pb.scanned);
  EXPECT_EQ(pa.skipped_pivot, pb.skipped_pivot);
  EXPECT_EQ(pa.skipped_grid, pb.skipped_grid);
  EXPECT_EQ(pa.scan_cache_hits, pb.scan_cache_hits);
  EXPECT_EQ(pa.bloom_skips, pb.bloom_skips);
  if (same_cache_history) {
    EXPECT_EQ(pa.exact_kernel_evals, pb.exact_kernel_evals);
    EXPECT_EQ(pa.cache_hits, pb.cache_hits);
  }
}

/// Same hosts with the same features. Interstitial order is compared
/// exactly when `exact_order`, else as a multiset (the batch extractor pools
/// destinations in its own order).
void expect_features_equal(const detect::FeatureMap& a, const detect::FeatureMap& b,
                           bool exact_order) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [host, fa] : a) {
    SCOPED_TRACE(host.to_string());
    const auto it = b.find(host);
    ASSERT_NE(it, b.end());
    const detect::HostFeatures& fb = it->second;
    EXPECT_EQ(fa.host, fb.host);
    EXPECT_EQ(fa.flows_initiated, fb.flows_initiated);
    EXPECT_EQ(fa.flows_failed, fb.flows_failed);
    EXPECT_EQ(fa.flows_received, fb.flows_received);
    EXPECT_EQ(fa.bytes_sent_initiated, fb.bytes_sent_initiated);
    EXPECT_EQ(fa.bytes_sent_received, fb.bytes_sent_received);
    EXPECT_EQ(fa.distinct_dsts, fb.distinct_dsts);
    EXPECT_EQ(fa.dsts_after_first_hour, fb.dsts_after_first_hour);
    EXPECT_EQ(fa.first_activity, fb.first_activity);
    if (exact_order) {
      EXPECT_EQ(fa.interstitials, fb.interstitials);
    } else {
      EXPECT_EQ(sorted_gaps(fa), sorted_gaps(fb));
    }
  }
}

void expect_verdicts_bit_identical(const std::vector<detect::WindowVerdict>& a,
                                   const std::vector<detect::WindowVerdict>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(a[i].window_index, b[i].window_index);
    EXPECT_EQ(a[i].window_start, b[i].window_start);
    EXPECT_EQ(a[i].window_end, b[i].window_end);
    EXPECT_EQ(a[i].flows_seen, b[i].flows_seen);
    EXPECT_EQ(a[i].degraded, b[i].degraded);
    EXPECT_EQ(a[i].hosts_shed, b[i].hosts_shed);
    EXPECT_EQ(a[i].timing_samples_shed, b[i].timing_samples_shed);
    expect_results_equal(a[i].result, b[i].result, true);
    expect_features_equal(a[i].features, b[i].features, true);
  }
}

// ---------------------------------------------------------------------------
// HashRing

TEST(HashRingTest, DeterministicAcrossInstances) {
  const HashRing a(8), b(8);
  util::Pcg32 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const simnet::Ipv4 host(static_cast<std::uint32_t>(rng.uniform_int(0, 0x7fffffff)));
    EXPECT_EQ(a.shard_of(host), b.shard_of(host));
  }
}

TEST(HashRingTest, SingleShardShortCircuits) {
  const HashRing ring(1);
  util::Pcg32 rng(5);
  for (int i = 0; i < 100; ++i) {
    const simnet::Ipv4 host(static_cast<std::uint32_t>(rng.uniform_int(0, 0x7fffffff)));
    EXPECT_EQ(ring.shard_of(host), 0u);
  }
}

TEST(HashRingTest, BalancedWithinTolerance) {
  const std::size_t shards = 8;
  const HashRing ring(shards);
  std::vector<std::size_t> counts(shards, 0);
  for (std::uint32_t h = 0; h < 20000; ++h)
    ++counts[ring.shard_of(simnet::Ipv4(10, static_cast<std::uint8_t>(h >> 8),
                                        static_cast<std::uint8_t>(h), 1))];
  const double mean = 20000.0 / static_cast<double>(shards);
  for (const std::size_t c : counts) {
    // 64 vnodes/shard keeps the heaviest shard well under 2x the mean.
    EXPECT_GT(static_cast<double>(c), 0.5 * mean);
    EXPECT_LT(static_cast<double>(c), 1.7 * mean);
  }
}

TEST(HashRingTest, BucketTableMatchesBinarySearchOverTheRing) {
  // Reference lookup: the ring points rebuilt from their public definition
  // and searched with upper_bound, wrapping past the last point.
  for (const std::size_t vnodes : {std::size_t{1}, std::size_t{64}}) {
    for (const std::size_t shards : {2u, 3u, 4u, 8u, 64u}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " vnodes " + std::to_string(vnodes));
      const HashRing ring(shards, vnodes);
      std::vector<std::pair<std::uint64_t, std::uint32_t>> points;
      for (std::size_t s = 0; s < shards; ++s)
        for (std::size_t r = 0; r < vnodes; ++r)
          points.emplace_back(splitmix64(splitmix64(static_cast<std::uint64_t>(s) << 32 | r)),
                              static_cast<std::uint32_t>(s));
      std::sort(points.begin(), points.end());
      const auto reference = [&](std::uint64_t h) -> std::size_t {
        auto it = std::upper_bound(points.begin(), points.end(),
                                   std::make_pair(h, ~std::uint32_t{0}));
        if (it == points.end()) it = points.begin();
        return it->second;
      };

      util::Pcg32 rng(shards * 131 + vnodes);
      for (int i = 0; i < 100000; ++i) {
        const simnet::Ipv4 host(static_cast<std::uint32_t>(rng()));
        ASSERT_EQ(ring.shard_of(host), reference(splitmix64(host.value()))) << host.to_string();
      }
      // Hashes at, just before and just after every ring point, the ends of
      // the hash space (the wrap past the last point), and bucket edges.
      std::vector<std::uint64_t> probes = {0, 1, ~std::uint64_t{0}, ~std::uint64_t{0} - 1};
      for (const auto& [p, s] : points) {
        probes.push_back(p);
        probes.push_back(p - 1);
        probes.push_back(p + 1);
        const std::uint64_t bucket = p >> 52 << 52;
        probes.push_back(bucket);
        probes.push_back(bucket - 1);
      }
      for (const std::uint64_t h : probes) ASSERT_EQ(ring.shard_of_hash(h), reference(h)) << h;
    }
  }
}

TEST(HashRingTest, RejectsDegenerateGeometry) {
  EXPECT_THROW(HashRing(0), util::ConfigError);
  EXPECT_THROW(HashRing(4, 0), util::ConfigError);
}

// ---------------------------------------------------------------------------
// Equality with the single detector and the batch oracle

/// Two consecutive 6 h windows over the same hosts (the second window's
/// θ_hm runs against the first's warm cache), with their references:
/// StreamingDetector's verdicts, and per window batch feature extraction
/// plus find_plotters over that window's flows alone.
struct Population {
  std::vector<netflow::FlowBatch> batches;
  std::vector<detect::WindowVerdict> streaming;
  std::vector<detect::FeatureMap> batch_features;
  std::vector<detect::FindPlottersResult> batch_results;
};

Population population(std::size_t hosts) {
  Population p;
  const std::size_t bots = hosts / 20;
  detect::FeatureExtractorConfig fx;
  fx.is_internal = is_internal;
  for (std::size_t w = 0; w < 2; ++w) {
    std::vector<netflow::FlowBatch> window = make_window(hosts, bots, 71 + w, w * 6 * 3600.0);
    p.batch_features.push_back(detect::extract_features(window, fx));
    p.batch_results.push_back(detect::find_plotters(p.batch_features.back()));
    for (netflow::FlowBatch& b : window) p.batches.push_back(std::move(b));
  }
  p.streaming = run_streaming(p.batches);
  return p;
}

/// (hosts, shards, threads)
class ShardedEqualityTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(ShardedEqualityTest, VerdictsEqualStreamingAndBatchOracle) {
  const auto [hosts, shards, threads] = GetParam();
  const Population p = population(hosts);
  ShardedConfig cfg = sharded_config(shards);
  cfg.threads = threads;
  cfg.pipeline.human_machine.threads = threads;
  ASSERT_EQ(cfg.timing_budget, 0u);
  const auto verdicts = run_sharded(cfg, p.batches);

  ASSERT_EQ(p.streaming.size(), 2u);
  expect_verdicts_bit_identical(verdicts, p.streaming);
  for (std::size_t w = 0; w < verdicts.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w) + " vs batch");
    expect_results_equal(verdicts[w].result, p.batch_results[w], false);
    expect_features_equal(verdicts[w].features, p.batch_features[w], false);
  }
  // The population is large enough to matter: past the reduction, into
  // θ_hm, with the bots flagged.
  EXPECT_GT(verdicts[0].result.input.size(), hosts);
  EXPECT_FALSE(verdicts[0].result.plotters.empty());
  EXPECT_FALSE(verdicts[1].result.plotters.empty());
}

INSTANTIATE_TEST_SUITE_P(
    HostsShardsThreads, ShardedEqualityTest,
    ::testing::Combine(::testing::Values(std::size_t{160}, std::size_t{1100}),
                       ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                                         std::size_t{4}, std::size_t{8}),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const auto& info) {
      return "h" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// shards == 1: bit-identity with the single streaming detector

TEST(ShardedDetectorTest, OneShardMatchesStreamingDetectorBitForBit) {
  const auto batches = make_window(160, 12, 41);
  const auto oracle = run_sharded(1, batches);
  const auto reference = run_streaming(batches);
  ASSERT_FALSE(reference.empty());
  expect_verdicts_bit_identical(oracle, reference);
}

// ---------------------------------------------------------------------------
// shards > 1: the merge computes exact thresholds over the union of the
// shards' features, so every stage's survivor set equals the single
// detector's with no error bound to report, θ_hm included.

class MergedOracleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MergedOracleTest, ScalarStagesMatchOracleWithZeroErrorBound) {
  const std::size_t shards = GetParam();
  const auto batches = make_window(220, 16, 43);
  const auto reference = run_streaming(batches);
  const auto merged = run_sharded(shards, batches);
  ASSERT_EQ(reference.size(), 1u);
  ASSERT_EQ(merged.size(), 1u);

  const detect::FindPlottersResult& m = merged[0].result;
  const detect::FindPlottersResult& r = reference[0].result;
  EXPECT_EQ(m.input, r.input);
  EXPECT_EQ(m.reduced, r.reduced);
  EXPECT_EQ(m.s_vol, r.s_vol);
  EXPECT_EQ(m.s_churn, r.s_churn);
  EXPECT_EQ(m.vol_or_churn, r.vol_or_churn);
  EXPECT_EQ(m.hm.tau_hm, r.hm.tau_hm);
  EXPECT_EQ(m.plotters, r.plotters);
  EXPECT_FALSE(r.plotters.empty());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, MergedOracleTest, ::testing::Values(2u, 8u));

TEST(ShardedDetectorTest, MergedRunIsDeterministic) {
  const auto batches = make_window(120, 8, 47);
  const auto a = run_sharded(4, batches);
  const auto b = run_sharded(4, batches);
  expect_verdicts_bit_identical(a, b);
}

TEST(ShardedDetectorTest, BudgetBelowShardCountStillSheds) {
  // Budget 3 over 4 shards: each shard gets ceil(3/4) = 1 sample, not
  // 3/4 = 0, which would mean unlimited.
  ShardedConfig cfg = sharded_config(4);
  cfg.timing_budget = 3;
  const auto verdicts = run_sharded(cfg, make_window(60, 4, 73));
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].degraded);
  EXPECT_GT(verdicts[0].hosts_shed, 0u);
  EXPECT_GT(verdicts[0].timing_samples_shed, 0u);
}

// ---------------------------------------------------------------------------
// Checkpoints

TEST(ShardedCheckpointTest, KillAndRestoreResumesBitIdentically) {
  // Cut in the first window, on a batch boundary and inside a batch; the
  // second window's θ_hm then runs against the restored cache section. The
  // resumed 4-shard run must equal the uninterrupted single detector.
  const Population p = population(160);
  const auto tmp = std::filesystem::temp_directory_path() / "tp_shard_ckpt_test.bin";
  for (const std::size_t cut_row : {std::size_t{0}, p.batches[0].size() / 3}) {
    const std::size_t cut_batch = p.batches.size() / 4;
    SCOPED_TRACE("cut at row " + std::to_string(cut_row) + " of batch " +
                 std::to_string(cut_batch));
    ASSERT_LT(p.batches[cut_batch].start_time()[cut_row], 6 * 3600.0);  // first window

    std::vector<detect::WindowVerdict> resumed;
    const auto sink = [&](const detect::WindowVerdict& v) { resumed.push_back(v); };
    {
      ShardedDetector first(sharded_config(4), sink);
      for (std::size_t i = 0; i < cut_batch; ++i) first.ingest(p.batches[i]);
      first.ingest(p.batches[cut_batch], 0, cut_row);
      first.save_checkpoint_file(tmp.string());
      // `first` is abandoned here: the simulated kill -9.
    }
    ShardedDetector second(sharded_config(4), sink);
    second.restore_checkpoint_file(tmp.string());
    second.ingest(p.batches[cut_batch], cut_row, p.batches[cut_batch].size());
    for (std::size_t i = cut_batch + 1; i < p.batches.size(); ++i) second.ingest(p.batches[i]);
    second.flush();
    std::filesystem::remove(tmp);

    expect_verdicts_bit_identical(resumed, p.streaming);
  }
}

TEST(ShardedCheckpointTest, GeometryMismatchIsConfigError) {
  const auto batches = make_window(60, 4, 59);
  const auto tmp = std::filesystem::temp_directory_path() / "tp_shard_geom_test.bin";
  {
    ShardedDetector d(sharded_config(2), [](const detect::WindowVerdict&) {});
    for (const netflow::FlowBatch& b : batches) d.ingest(b);
    d.save_checkpoint_file(tmp.string());
  }
  ShardedDetector other(sharded_config(4), [](const detect::WindowVerdict&) {});
  EXPECT_THROW(other.restore_checkpoint_file(tmp.string()), util::ConfigError);

  ShardedConfig narrow = sharded_config(2);
  narrow.vnodes = 8;
  ShardedDetector rering(narrow, [](const detect::WindowVerdict&) {});
  EXPECT_THROW(rering.restore_checkpoint_file(tmp.string()), util::ConfigError);
  std::filesystem::remove(tmp);
}

TEST(ShardedCheckpointTest, CorruptImageIsParseErrorNeverPartial) {
  const auto batches = make_window(60, 4, 61);
  const auto tmp = std::filesystem::temp_directory_path() / "tp_shard_corrupt_test.bin";
  {
    ShardedDetector d(sharded_config(2), [](const detect::WindowVerdict&) {});
    for (const netflow::FlowBatch& b : batches) d.ingest(b);
    d.save_checkpoint_file(tmp.string());
  }
  std::fstream f(tmp, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  f.seekp(size / 2);
  byte = static_cast<char>(byte ^ 0x5a);
  f.write(&byte, 1);
  f.close();

  ShardedDetector fresh(sharded_config(2), [](const detect::WindowVerdict&) {});
  EXPECT_THROW(fresh.restore_checkpoint_file(tmp.string()), util::ParseError);
  std::filesystem::remove(tmp);
}

TEST(ShardedDetectorTest, RejectsDegenerateConfig) {
  EXPECT_THROW(ShardedDetector(sharded_config(0), [](const detect::WindowVerdict&) {}),
               util::ConfigError);
  ShardedConfig no_vnodes = sharded_config(2);
  no_vnodes.vnodes = 0;
  EXPECT_THROW(ShardedDetector(no_vnodes, [](const detect::WindowVerdict&) {}),
               util::ConfigError);
  ShardedConfig no_pred = sharded_config(2);
  no_pred.is_internal = nullptr;
  EXPECT_THROW(ShardedDetector(no_pred, [](const detect::WindowVerdict&) {}),
               util::ConfigError);
}

}  // namespace
}  // namespace tradeplot::shard
