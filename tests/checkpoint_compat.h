// Shared by detect_checkpoint_compat_test and write_checkpoint_images: the
// flow sequence, configurations and cut of the committed compatibility
// images in tests/data/.
#pragma once

#include "botnet/honeynet.h"
#include "detect/streaming.h"
#include "shard/sharded_detector.h"

namespace tradeplot::compat {

inline constexpr std::size_t kKillAt = 2500;  // mid-window, after the budget shed

inline netflow::TraceSet trace() {
  botnet::HoneynetConfig h;
  h.seed = 23;
  h.duration = 2 * 3600.0;
  h.nugache_bots = 0;
  return botnet::generate_storm_trace(h);
}

inline detect::StreamingConfig streaming_config() {
  detect::StreamingConfig c;
  c.window = 3600.0;
  c.is_internal = detect::default_internal_predicate;
  c.timing_budget = 1200;
  return c;
}

inline shard::ShardedConfig sharded_config() {
  shard::ShardedConfig c;
  c.shards = 3;
  c.window = 3600.0;
  c.is_internal = detect::default_internal_predicate;
  c.timing_budget = 1200;
  c.threads = 1;
  return c;
}

}  // namespace tradeplot::compat
