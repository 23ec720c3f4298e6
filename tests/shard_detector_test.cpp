// ShardedDetector and its merge stage (src/shard/).
//
// The contracts under test, in the order the subsystem makes them:
//   * HashRing — deterministic, balanced, ConfigError on degenerate
//     geometry, short-circuit at one shard;
//   * shards == 1 — bit-identical verdicts to StreamingDetector (same
//     pipeline, same shed points, same τ_hm);
//   * shards > 1 — the scalar stages (data reduction, θ_vol, θ_churn) are
//     *set-identical* to the single-detector oracle whenever the merged
//     quantile sketches stayed lossless (population < k), with the reported
//     error bounds at exactly 0; the two-level θ_hm stage is an
//     approximation, so its agreement with the oracle is measured and
//     reported, not asserted to 100%;
//   * checkpoints — kill-and-restore resumes bit-identically, geometry
//     mismatches are ConfigError, corruption is ParseError;
//   * the weighted UPGMA driver — hand-checked Lance–Williams heights;
//   * human_machine_local — exports singletons (with medoid == member),
//     which human_machine_test would have suppressed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "detect/human_machine.h"
#include "detect/streaming.h"
#include "netflow/flow_batch.h"
#include "shard/ring.h"
#include "shard/sharded_detector.h"
#include "stats/hcluster.h"
#include "util/error.h"
#include "util/rng.h"

namespace tradeplot::shard {
namespace {

bool is_internal(simnet::Ipv4 a) { return (a.value() >> 24) == 10; }

// ---------------------------------------------------------------------------
// Workload: one detection window with a separable population. "Bot" hosts
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

std::vector<netflow::FlowBatch> make_window(std::size_t hosts, std::size_t bots,
                                            std::uint64_t seed) {
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
    double t = rng.uniform(0.0, 600.0);
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

std::vector<detect::WindowVerdict> run_sharded(std::size_t shards,
                                               const std::vector<netflow::FlowBatch>& batches,
                                               MergedPipelineReport* report = nullptr) {
  std::vector<detect::WindowVerdict> verdicts;
  ShardedDetector detector(sharded_config(shards),
                           [&](const detect::WindowVerdict& v) { verdicts.push_back(v); });
  for (const netflow::FlowBatch& b : batches) detector.ingest(b);
  detector.flush();
  if (report != nullptr) *report = detector.last_merge_report();
  return verdicts;
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

detect::HostSet sorted(detect::HostSet s) {
  std::sort(s.begin(), s.end());
  return s;
}

double jaccard(const detect::HostSet& a, const detect::HostSet& b) {
  const detect::HostSet sa = sorted(a), sb = sorted(b);
  detect::HostSet inter, uni;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(), std::back_inserter(inter));
  std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(), std::back_inserter(uni));
  return uni.empty() ? 1.0 : static_cast<double>(inter.size()) / static_cast<double>(uni.size());
}

void expect_verdicts_bit_identical(const std::vector<detect::WindowVerdict>& a,
                                   const std::vector<detect::WindowVerdict>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].window_index, b[i].window_index);
    EXPECT_EQ(a[i].window_start, b[i].window_start);
    EXPECT_EQ(a[i].flows_seen, b[i].flows_seen);
    EXPECT_EQ(a[i].degraded, b[i].degraded);
    EXPECT_EQ(sorted(a[i].result.plotters), sorted(b[i].result.plotters));
    EXPECT_EQ(sorted(a[i].result.reduced), sorted(b[i].result.reduced));
    EXPECT_EQ(sorted(a[i].result.s_vol), sorted(b[i].result.s_vol));
    EXPECT_EQ(sorted(a[i].result.s_churn), sorted(b[i].result.s_churn));
    EXPECT_EQ(a[i].result.hm.tau_hm, b[i].result.hm.tau_hm);
    ASSERT_EQ(a[i].result.hm.clusters.size(), b[i].result.hm.clusters.size());
    for (std::size_t c = 0; c < a[i].result.hm.clusters.size(); ++c) {
      EXPECT_EQ(a[i].result.hm.clusters[c].members, b[i].result.hm.clusters[c].members);
      EXPECT_EQ(a[i].result.hm.clusters[c].diameter, b[i].result.hm.clusters[c].diameter);
      EXPECT_EQ(a[i].result.hm.clusters[c].kept, b[i].result.hm.clusters[c].kept);
    }
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
// shards == 1: bit-identity with the single streaming detector

TEST(ShardedDetectorTest, OneShardMatchesStreamingDetectorBitForBit) {
  const auto batches = make_window(160, 12, 41);
  const auto oracle = run_sharded(1, batches);
  const auto reference = run_streaming(batches);
  ASSERT_FALSE(reference.empty());
  expect_verdicts_bit_identical(oracle, reference);
}

// ---------------------------------------------------------------------------
// shards > 1: scalar stages exact in the lossless regime, θ_hm agreement
// measured and reported

class MergedOracleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MergedOracleTest, ScalarStagesMatchOracleWithZeroErrorBound) {
  const std::size_t shards = GetParam();
  const auto batches = make_window(220, 16, 43);  // population << sketch k = 1024
  const auto reference = run_streaming(batches);
  MergedPipelineReport report;
  const auto merged = run_sharded(shards, batches, &report);
  ASSERT_EQ(reference.size(), 1u);
  ASSERT_EQ(merged.size(), 1u);

  // Lossless sketches: bounds must be exactly zero and every scalar stage's
  // survivor set identical to the single-detector pipeline.
  EXPECT_EQ(report.thresholds.reduction_error_bound, 0u);
  EXPECT_EQ(report.thresholds.vol_error_bound, 0u);
  EXPECT_EQ(report.thresholds.churn_error_bound, 0u);
  EXPECT_EQ(sorted(merged[0].result.input), sorted(reference[0].result.input));
  EXPECT_EQ(sorted(merged[0].result.reduced), sorted(reference[0].result.reduced));
  EXPECT_EQ(sorted(merged[0].result.s_vol), sorted(reference[0].result.s_vol));
  EXPECT_EQ(sorted(merged[0].result.s_churn), sorted(reference[0].result.s_churn));
  EXPECT_EQ(sorted(merged[0].result.vol_or_churn), sorted(reference[0].result.vol_or_churn));

  // θ_hm is the documented approximation (stitched-diameter upper bounds,
  // two cuts): measure and report agreement with the oracle instead of
  // pretending it is exact. The bots' tight timer cluster must survive the
  // stitch, so agreement cannot be degenerate.
  const double agreement =
      jaccard(merged[0].result.plotters, reference[0].result.plotters);
  ::testing::Test::RecordProperty("theta_hm_jaccard_x1000",
                                  static_cast<int>(agreement * 1000));
  std::printf("[ shards=%zu ] theta_hm verdict agreement (Jaccard): %.3f "
              "(merged %zu vs oracle %zu plotters, %zu representatives)\n",
              shards, agreement, merged[0].result.plotters.size(),
              reference[0].result.plotters.size(), report.representatives);
  EXPECT_FALSE(reference[0].result.plotters.empty());
  EXPECT_GT(agreement, 0.0);
  EXPECT_GT(report.representatives, 0u);
  EXPECT_EQ(report.shard_count, shards);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, MergedOracleTest, ::testing::Values(2u, 8u));

TEST(ShardedDetectorTest, MergedRunIsDeterministic) {
  const auto batches = make_window(120, 8, 47);
  const auto a = run_sharded(4, batches);
  const auto b = run_sharded(4, batches);
  expect_verdicts_bit_identical(a, b);
}

// ---------------------------------------------------------------------------
// Checkpoints

TEST(ShardedCheckpointTest, KillAndRestoreResumesBitIdentically) {
  const auto batches = make_window(100, 8, 53);
  const std::size_t cut = batches.size() / 2;
  const auto tmp = std::filesystem::temp_directory_path() / "tp_shard_ckpt_test.bin";

  const auto reference = run_sharded(4, batches);

  std::vector<detect::WindowVerdict> resumed;
  const auto sink = [&](const detect::WindowVerdict& v) { resumed.push_back(v); };
  {
    ShardedDetector first(sharded_config(4), sink);
    for (std::size_t i = 0; i < cut; ++i) first.ingest(batches[i]);
    first.save_checkpoint_file(tmp.string());
    // `first` is abandoned here: the simulated kill -9.
  }
  ShardedDetector second(sharded_config(4), sink);
  second.restore_checkpoint_file(tmp.string());
  for (std::size_t i = cut; i < batches.size(); ++i) second.ingest(batches[i]);
  second.flush();
  std::filesystem::remove(tmp);

  expect_verdicts_bit_identical(resumed, reference);
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

// ---------------------------------------------------------------------------
// Level-two building blocks

TEST(WeightedUpgmaTest, HandComputedLanceWilliamsHeights) {
  // Leaves {0,1,2} with weights {2,1,1}: d(0,1)=1, d(0,2)=4, d(1,2)=5.
  // First merge joins (0,1) at height 1. The merged node's distance to leaf
  // 2 under weighted average linkage is (2*4 + 1*5) / 3 = 13/3 — the height
  // unweighted UPGMA would produce had leaf 0 been two coincident points.
  const std::size_t n = 3;
  std::vector<double> dist(n * n, 0.0);
  const auto set = [&](std::size_t i, std::size_t j, double d) {
    dist[i * n + j] = dist[j * n + i] = d;
  };
  set(0, 1, 1.0);
  set(0, 2, 4.0);
  set(1, 2, 5.0);
  const std::vector<std::size_t> weights{2, 1, 1};
  const stats::Dendrogram dendrogram =
      stats::agglomerative_average_linkage_weighted(dist, n, weights);
  ASSERT_EQ(dendrogram.merges().size(), 2u);
  EXPECT_DOUBLE_EQ(dendrogram.merges()[0].height, 1.0);
  EXPECT_EQ(dendrogram.merges()[0].size, 3u);  // sizes count original items
  EXPECT_DOUBLE_EQ(dendrogram.merges()[1].height, 13.0 / 3.0);
  EXPECT_EQ(dendrogram.merges()[1].size, 4u);

  EXPECT_THROW(stats::agglomerative_average_linkage_weighted(
                   dist, n, std::vector<std::size_t>{2, 1}),
               util::ConfigError);
  EXPECT_THROW(stats::agglomerative_average_linkage_weighted(
                   dist, n, std::vector<std::size_t>{2, 1, 0}),
               util::ConfigError);
}

TEST(HumanMachineLocalTest, ExportsSingletonsWithSelfMedoid) {
  // A population too small and too scattered for human_machine_test to keep
  // anything (min_cluster_size = 3) must still come back from the local
  // level in full: the merge stage, not the shard, decides cluster fates.
  const auto batches = make_window(24, 0, 67);
  std::vector<detect::WindowVerdict> verdicts;
  detect::StreamingDetector detector(
      streaming_config(), [&](const detect::WindowVerdict& v) { verdicts.push_back(v); });
  for (const netflow::FlowBatch& b : batches) detector.ingest(b);
  detector.flush();
  ASSERT_EQ(verdicts.size(), 1u);
  const detect::FeatureMap& features = verdicts[0].features;

  detect::HostSet input;
  for (const auto& [addr, feat] : features)
    if (is_internal(addr)) input.push_back(addr);
  std::sort(input.begin(), input.end());

  const detect::LocalClusterResult local = detect::human_machine_local(features, input);
  std::size_t exported = 0;
  for (const detect::LocalCluster& c : local.clusters) {
    exported += c.members.size();
    ASSERT_FALSE(c.members.empty());
    EXPECT_TRUE(std::is_sorted(c.members.begin(), c.members.end()));
    EXPECT_TRUE(std::find(c.members.begin(), c.members.end(), c.medoid) != c.members.end());
    if (c.members.size() == 1) {
      EXPECT_EQ(c.medoid, c.members[0]);
      EXPECT_EQ(c.diameter, 0.0);
    }
  }
  // Everything eligible is exported — no min_cluster_size floor, no τ_hm.
  EXPECT_EQ(exported + local.skipped.size(), input.size());
}

}  // namespace
}  // namespace tradeplot::shard
