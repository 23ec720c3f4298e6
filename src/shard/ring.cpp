#include "shard/ring.h"

#include <algorithm>

#include "util/error.h"

namespace tradeplot::shard {

HashRing::HashRing(std::size_t shards, std::size_t vnodes)
    : shards_(shards), vnodes_(vnodes) {
  if (shards == 0) throw util::ConfigError("HashRing: shards must be > 0");
  if (vnodes == 0) throw util::ConfigError("HashRing: vnodes must be > 0");
  if (shards == 1) return;  // every host maps to shard 0; no ring needed
  points_.reserve(shards * vnodes);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t r = 0; r < vnodes; ++r) {
      // Mix the (shard, replica) pair through two rounds so replica points
      // of one shard are spread independently.
      const std::uint64_t point =
          splitmix64(splitmix64(static_cast<std::uint64_t>(s) << 32 | r));
      points_.emplace_back(point, static_cast<std::uint32_t>(s));
    }
  }
  std::sort(points_.begin(), points_.end());
  bucket_first_.resize(std::size_t{1} << kBucketBits);
  std::size_t p = 0;
  for (std::size_t b = 0; b < bucket_first_.size(); ++b) {
    const std::uint64_t bucket_start = static_cast<std::uint64_t>(b) << (64 - kBucketBits);
    while (p < points_.size() && points_[p].first < bucket_start) ++p;
    bucket_first_[b] = static_cast<std::uint32_t>(p);
  }
}

}  // namespace tradeplot::shard
