#include "shard/merge.h"

#include "util/error.h"

namespace tradeplot::shard {

MergedResult merged_find_plotters(std::span<const detect::FeatureMap> shard_features,
                                  const detect::FindPlottersConfig& config,
                                  std::span<detect::HmCache* const> caches, std::size_t) {
  detect::FeatureMap all;
  for (const detect::FeatureMap& m : shard_features)
    for (const auto& [host, f] : m)
      if (!all.emplace(host, f).second)
        throw util::ConfigError("merged_find_plotters: host " + host.to_string() +
                                " appears on two shards");
  return {detect::find_plotters(all, config, caches.empty() ? nullptr : caches[0])};
}

}  // namespace tradeplot::shard
