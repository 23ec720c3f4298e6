// Checkpoint images stay readable across detector rewrites. tests/data/
// holds a TPCK image, written by the build that preceded the flat
// accumulator, and a TPSH version 2 image; each is cut mid-window after the
// timing budget shed a host. Restoring them must finish with the
// uninterrupted run's verdicts, and a restored image must save back to the
// same size and, re-restored, to the same bytes. A TPSH version 1 image
// (one θ_hm cache per shard) is kept too, and must be rejected.
//
// write_checkpoint_images (tests/) writes both current images from the
// code whose layout they pin; sharded_v2.tpsh came from
//   ./build/tests/write_checkpoint_images tests/data
// with the committed streaming_v2.tpck then restored from git.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint_compat.h"
#include "util/error.h"

namespace tradeplot::compat {
namespace {

std::string data_path(const std::string& name) {
  return std::string(TP_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream s;
  s << in.rdbuf();
  return s.str();
}

template <typename Detector>
std::string save(const Detector& d) {
  std::stringstream out;
  d.save_checkpoint(out);
  return out.str();
}

template <typename Detector>
void restore(Detector& d, const std::string& image) {
  std::stringstream in(image);
  d.restore_checkpoint(in);
}

void expect_verdicts_equal(const std::vector<detect::WindowVerdict>& a,
                           const std::vector<detect::WindowVerdict>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(a[i].flows_seen, b[i].flows_seen);
    EXPECT_EQ(a[i].degraded, b[i].degraded);
    EXPECT_EQ(a[i].hosts_shed, b[i].hosts_shed);
    EXPECT_EQ(a[i].timing_samples_shed, b[i].timing_samples_shed);
    EXPECT_EQ(a[i].result.input, b[i].result.input);
    EXPECT_EQ(a[i].result.reduced, b[i].result.reduced);
    EXPECT_EQ(a[i].result.s_vol, b[i].result.s_vol);
    EXPECT_EQ(a[i].result.s_churn, b[i].result.s_churn);
    EXPECT_EQ(a[i].result.plotters, b[i].result.plotters);
    ASSERT_EQ(a[i].features.size(), b[i].features.size());
    for (const auto& [host, fa] : a[i].features) {
      const detect::HostFeatures& fb = b[i].features.at(host);
      EXPECT_EQ(fa.flows_initiated, fb.flows_initiated);
      EXPECT_EQ(fa.flows_received, fb.flows_received);
      EXPECT_EQ(fa.distinct_dsts, fb.distinct_dsts);
      EXPECT_EQ(fa.dsts_after_first_hour, fb.dsts_after_first_hour);
      std::vector<double> ga = fa.interstitials, gb = fb.interstitials;
      std::sort(ga.begin(), ga.end());
      std::sort(gb.begin(), gb.end());
      EXPECT_EQ(ga, gb) << host.to_string();
    }
  }
}

/// Verdicts of an uninterrupted run, and of a run restored from `image`
/// that ingests the flows after the cut.
template <typename Detector, typename Config>
void expect_resume_matches(const Config& cfg, const std::string& image) {
  const netflow::TraceSet t = trace();
  std::vector<detect::WindowVerdict> expected, resumed;
  {
    Detector d(cfg, [&](const detect::WindowVerdict& v) { expected.push_back(v); });
    for (const auto& rec : t.flows()) d.ingest(rec);
    d.flush();
  }
  Detector d(cfg, [&](const detect::WindowVerdict& v) { resumed.push_back(v); });
  restore(d, image);
  ASSERT_EQ(d.flows_ingested_total(), kKillAt);
  ASSERT_GT(d.flows_in_current_window(), 0u);  // cut mid-window
  for (std::size_t i = kKillAt; i < t.flows().size(); ++i) d.ingest(t.flows()[i]);
  d.flush();
  ASSERT_FALSE(resumed.empty());
  EXPECT_GT(resumed.front().hosts_shed, 0u);  // the cut window had shed a host
  const std::vector<detect::WindowVerdict> tail(expected.end() - resumed.size(), expected.end());
  expect_verdicts_equal(resumed, tail);
}

/// A restored image re-saves to the same size; re-restoring that save gives
/// the same bytes again; and a detector fed the flows directly saves an
/// image of the same size that also round-trips byte for byte.
template <typename Detector, typename Config>
void expect_round_trips(const Config& cfg, const std::string& parent_image) {
  const auto sink = [](const detect::WindowVerdict&) {};
  Detector a(cfg, sink), b(cfg, sink);
  restore(a, parent_image);
  const std::string first = save(a);
  EXPECT_EQ(first.size(), parent_image.size());
  restore(b, first);
  EXPECT_EQ(save(b), first);

  const netflow::TraceSet t = trace();
  Detector fresh(cfg, sink), again(cfg, sink);
  for (std::size_t i = 0; i < kKillAt; ++i) fresh.ingest(t.flows()[i]);
  const std::string direct = save(fresh);
  EXPECT_EQ(direct.size(), parent_image.size());
  restore(again, direct);
  EXPECT_EQ(save(again), direct);
}

TEST(CheckpointCompat, StreamingImageRestoresToUninterruptedVerdicts) {
  expect_resume_matches<detect::StreamingDetector>(streaming_config(),
                                                   read_file(data_path("streaming_v2.tpck")));
}

TEST(CheckpointCompat, ShardedImageRestoresToUninterruptedVerdicts) {
  expect_resume_matches<shard::ShardedDetector>(sharded_config(),
                                                read_file(data_path("sharded_v2.tpsh")));
}

TEST(CheckpointCompat, StreamingSaveRestoreSaveIsByteIdentical) {
  expect_round_trips<detect::StreamingDetector>(streaming_config(),
                                                read_file(data_path("streaming_v2.tpck")));
}

TEST(CheckpointCompat, ShardedSaveRestoreSaveIsByteIdentical) {
  expect_round_trips<shard::ShardedDetector>(sharded_config(),
                                             read_file(data_path("sharded_v2.tpsh")));
}

TEST(CheckpointCompat, ShardedV1ImageIsRejected) {
  shard::ShardedDetector d(sharded_config(), [](const detect::WindowVerdict&) {});
  try {
    restore(d, read_file(data_path("sharded_v1.tpsh")));
    FAIL() << "a version 1 image was accepted";
  } catch (const util::ParseError& e) {
    EXPECT_STREQ(e.what(), "parse error: shard checkpoint: unsupported version 1");
  }
  EXPECT_EQ(d.flows_ingested_total(), 0u);
}

}  // namespace
}  // namespace tradeplot::compat
