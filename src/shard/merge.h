// Composed window verdict over per-shard feature maps.
//
// The ring sends every host to exactly one shard, so the shards' finalized
// feature maps are host-disjoint and their union is the single detector's
// map. ShardedDetector runs find_plotters once over that union (no copy);
// this entry point does the same for callers that hold the shards' maps
// separately.
#pragma once

#include <cstddef>
#include <span>

#include "detect/find_plotters.h"

namespace tradeplot::detect {
class HmCache;
}

namespace tradeplot::shard {

struct MergedResult {
  detect::FindPlottersResult result;
};

/// find_plotters over the union of `shard_features`, with `caches[0]` as
/// the θ_hm cache (none when `caches` is empty). The verdict is the batch
/// oracle's. The last parameter is ignored. Throws util::ConfigError if a
/// host appears in two maps.
[[nodiscard]] MergedResult merged_find_plotters(
    std::span<const detect::FeatureMap> shard_features,
    const detect::FindPlottersConfig& config, std::span<detect::HmCache* const> caches = {},
    std::size_t = 0);

}  // namespace tradeplot::shard
