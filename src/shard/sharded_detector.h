// ShardedDetector — the multi-worker streaming detector.
//
// The single StreamingDetector is one big hash map: every flow's initiator
// and responder state lives in one WindowAccumulator, so ingest is serial by
// construction. ShardedDetector splits the host space across N worker
// shards with a consistent-hash ring (shard/ring.h): each shard owns its
// own WindowAccumulator (columnar ingest path), its own checkpoint section,
// and its own obs gauge. A batch is routed once on the ingest thread — a
// cheap per-row ring lookup producing per-shard op lists — and the
// expensive per-host accumulation (hash-map touches, timing buffers) then
// runs shard-parallel on util::ThreadPool workers, each worker touching
// only its own shard's state (no locks, no sharing).
//
// Per-host op order is preserved: a host's ops land in its shard's list in
// row order, and each shard applies its list in order, so every shard's
// accumulator sees exactly the sub-sequence of flows it owns, in arrival
// order, and finalizes the same per-host features the single detector
// would.
//
// At a window close every shard finalizes its features in parallel. The
// shards share no hosts, so their maps are moved into one FeatureMap and
// find_plotters runs once over it with one detector-wide θ_hm cache: the
// verdict is the single detector's at every shard and thread count. Only a
// timing budget can make them differ (see ShardedConfig::timing_budget).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "detect/accumulator.h"
#include "detect/hm_cache.h"
#include "detect/streaming.h"
#include "shard/ring.h"

namespace tradeplot::shard {

struct ShardedConfig {
  /// Worker shards. With no timing budget every count reproduces
  /// StreamingDetector bit for bit.
  std::size_t shards = 1;
  /// Ring points per shard (balance knob; part of the checkpoint identity).
  std::size_t vnodes = HashRing::kDefaultVnodes;
  /// Detection window length D (seconds).
  double window = 6 * 3600.0;
  /// Predicate for internal hosts (required).
  std::function<bool(simnet::Ipv4)> is_internal;
  /// Churn grace period within the window.
  double new_ip_grace = 3600.0;
  detect::FindPlottersConfig pipeline{};
  /// Whole-detector timing-sample budget (0 = unlimited). Each shard
  /// enforces ceil(budget/shards) over its own hosts, so any non-zero budget
  /// sheds; the exact global shed order would need cross-shard coordination
  /// on the hot path, so at shards > 1 a budgeted window may shed other
  /// hosts than StreamingDetector does. At shards == 1 the whole budget
  /// applies, preserving bit-identity.
  std::size_t timing_budget = 0;
  /// Detector-wide θ_hm signature cache (see detect/hm_cache.h).
  bool signature_cache = true;
  /// Worker threads for shard dispatch and finalize (0 =
  /// TRADEPLOT_THREADS / hardware concurrency; results are identical at
  /// every thread count).
  std::size_t threads = 0;
};

class ShardedDetector {
 public:
  using VerdictSink = std::function<void(const detect::WindowVerdict&)>;

  /// Throws util::ConfigError on shards == 0, vnodes == 0, a non-positive
  /// window, or a missing is_internal/sink.
  ShardedDetector(ShardedConfig config, VerdictSink sink);

  /// Batch ingestion: rows are routed to shards in order, with window rolls
  /// exactly where record-at-a-time ingestion would put them. The range
  /// overload ingests rows [begin, end).
  void ingest(const netflow::FlowBatch& batch);
  void ingest(const netflow::FlowBatch& batch, std::size_t begin, std::size_t end);
  void ingest(const netflow::FlowRecord& flow);

  /// Closes the current window and emits its verdict; idempotent, like
  /// StreamingDetector::flush.
  void flush();

  [[nodiscard]] std::size_t shard_count() const { return config_.shards; }
  [[nodiscard]] const HashRing& ring() const { return ring_; }
  [[nodiscard]] std::size_t windows_emitted() const { return windows_emitted_; }
  [[nodiscard]] std::size_t flows_in_current_window() const { return flows_in_window_; }
  [[nodiscard]] double current_window_start() const { return window_start_; }
  [[nodiscard]] std::uint64_t flows_ingested_total() const { return flows_ingested_total_; }
  /// Hosts currently tracked by shard `s` (bench/test introspection).
  [[nodiscard]] std::size_t shard_host_count(std::size_t s) const;

  /// Versioned, CRC-checked image of the full detector: the global window
  /// cursor, one accumulator section per shard, then the θ_hm cache.
  /// The shard/vnode geometry is part of the image; restoring into a
  /// detector with a different window, grace, shard count, or vnode count
  /// throws util::ConfigError (the routing would no longer match the saved
  /// state). Corrupt images throw util::ParseError, never partially apply.
  void save_checkpoint(std::ostream& out) const;
  void save_checkpoint_file(const std::string& path) const;
  void restore_checkpoint(std::istream& in);
  void restore_checkpoint_file(const std::string& path);

 private:
  void route_row(const netflow::FlowBatch& batch, std::size_t i);
  void apply_pending(const netflow::FlowBatch& batch);
  void roll_to(double time);
  void emit();

  ShardedConfig config_;
  VerdictSink sink_;
  HashRing ring_;
  std::size_t shard_budget_ = 0;  // per-shard timing budget

  std::vector<detect::WindowAccumulator> accumulators_;
  detect::HmCache cache_;

  /// Per-shard routed op lists for the batch segment being ingested: row
  /// index with the top bit marking a responder-side op.
  static constexpr std::uint32_t kResponderBit = 0x80000000u;
  std::vector<std::vector<std::uint32_t>> ops_;
  std::size_t ops_pending_ = 0;

  double window_start_ = 0.0;
  bool window_open_ = false;
  std::size_t flows_in_window_ = 0;
  std::size_t windows_emitted_ = 0;
  std::uint64_t flows_ingested_total_ = 0;
};

}  // namespace tradeplot::shard
