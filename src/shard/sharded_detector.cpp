#include "shard/sharded_detector.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "detect/payload_codec.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/parallel.h"

namespace tradeplot::shard {

namespace {

obs::Counter& shard_windows_counter() {
  return obs::Registry::global().counter("tradeplot_shard_windows_total",
                                         "Detection windows closed by the sharded detector");
}

constexpr std::uint32_t kShardCkptMagic = 0x48535054;  // "TPSH" on the wire
// Version 2: one detector-wide θ_hm cache section after the accumulators
// (version 1 held one cache per shard).
constexpr std::uint32_t kShardCkptVersion = 2;
constexpr std::uint64_t kShardCkptMaxPayload = 1ull << 30;

}  // namespace

ShardedDetector::ShardedDetector(ShardedConfig config, VerdictSink sink)
    : config_(std::move(config)),
      sink_(std::move(sink)),
      ring_(config_.shards, config_.vnodes) {
  if (!config_.is_internal)
    throw util::ConfigError("ShardedDetector: is_internal required");
  if (config_.window <= 0.0)
    throw util::ConfigError("ShardedDetector: window must be > 0");
  if (!sink_) throw util::ConfigError("ShardedDetector: verdict sink required");
  accumulators_.resize(config_.shards);
  ops_.resize(config_.shards);
  // Rounded up: a budget below the shard count must still shed (0 would
  // mean unlimited).
  shard_budget_ = (config_.timing_budget + config_.shards - 1) / config_.shards;
}

std::size_t ShardedDetector::shard_host_count(std::size_t s) const {
  return accumulators_.at(s).host_count();
}

void ShardedDetector::route_row(const netflow::FlowBatch& batch, std::size_t i) {
  const simnet::Ipv4 src = batch.src()[i];
  const simnet::Ipv4 dst = batch.dst()[i];
  const bool failed = batch.state()[i] != netflow::FlowState::kEstablished;
  if (config_.is_internal(src))
    ops_[ring_.shard_of(src)].push_back(static_cast<std::uint32_t>(i));
  if (config_.is_internal(dst) && !failed)
    ops_[ring_.shard_of(dst)].push_back(static_cast<std::uint32_t>(i) | kResponderBit);
  ops_pending_ += 1;
  ++flows_in_window_;
  ++flows_ingested_total_;
}

void ShardedDetector::apply_pending(const netflow::FlowBatch& batch) {
  if (ops_pending_ == 0) return;
  const simnet::Ipv4* src = batch.src();
  const simnet::Ipv4* dst = batch.dst();
  const double* start = batch.start_time();
  const std::uint64_t* bytes_src = batch.bytes_src();
  const std::uint64_t* bytes_dst = batch.bytes_dst();
  const netflow::FlowState* state = batch.state();
  // One task per shard; each touches only its own accumulator, so every
  // thread count (including 1) produces identical per-shard state.
  util::parallel_for(0, config_.shards, 1, config_.threads, [&](std::size_t s) {
    detect::WindowAccumulator& acc = accumulators_[s];
    for (const std::uint32_t op : ops_[s]) {
      const std::size_t i = op & ~kResponderBit;
      if ((op & kResponderBit) != 0) {
        acc.apply_responder(dst[i], start[i], bytes_dst[i]);
      } else {
        acc.apply_initiator(src[i], dst[i], start[i], bytes_src[i],
                            state[i] != netflow::FlowState::kEstablished, shard_budget_);
      }
    }
  });
  for (std::vector<std::uint32_t>& shard_ops : ops_) shard_ops.clear();
  ops_pending_ = 0;
}

void ShardedDetector::ingest(const netflow::FlowBatch& batch) {
  ingest(batch, 0, batch.size());
}

void ShardedDetector::ingest(const netflow::FlowBatch& batch, std::size_t begin,
                             std::size_t end) {
  const double* start = batch.start_time();
  for (std::size_t i = begin; i < end; ++i) {
    const double t = start[i];
    if (!window_open_) {
      window_start_ = std::floor(t / config_.window) * config_.window;
      window_open_ = true;
    }
    if (t >= window_start_ + config_.window) {
      // Window boundary inside the batch: drain the routed segment into the
      // shards, close the window(s), then keep routing — verdicts land
      // exactly where record-at-a-time ingestion would put them.
      apply_pending(batch);
      roll_to(t);
    }
    route_row(batch, i);
  }
  apply_pending(batch);
}

void ShardedDetector::ingest(const netflow::FlowRecord& flow) {
  if (!window_open_) {
    window_start_ = std::floor(flow.start_time / config_.window) * config_.window;
    window_open_ = true;
  }
  roll_to(flow.start_time);
  if (config_.is_internal(flow.src)) {
    accumulators_[ring_.shard_of(flow.src)].apply_initiator(
        flow.src, flow.dst, flow.start_time, flow.bytes_src, flow.failed(), shard_budget_);
  }
  if (config_.is_internal(flow.dst) && !flow.failed()) {
    accumulators_[ring_.shard_of(flow.dst)].apply_responder(flow.dst, flow.start_time,
                                                            flow.bytes_dst);
  }
  ++flows_in_window_;
  ++flows_ingested_total_;
}

void ShardedDetector::roll_to(double time) {
  while (window_open_ && time >= window_start_ + config_.window) {
    emit();
    window_start_ += config_.window;
  }
}

void ShardedDetector::emit() {
  const std::size_t shards = config_.shards;
  detect::WindowVerdict verdict;
  std::vector<detect::FeatureMap> shard_features(shards);
  {
    // The window_close stage ends when the sink returns, as in
    // StreamingDetector: teardown after the verdict is not its latency.
    const obs::StageTimer close_timer(obs::Stage::kWindowClose);
    // Finalize every shard's features in parallel (each writes its own slot).
    util::parallel_for(0, shards, 1, config_.threads, [&](std::size_t s) {
      shard_features[s] = accumulators_[s].finalize(config_.new_ip_grace);
    });

    std::size_t hosts_shed = 0, samples_shed = 0;
    for (const detect::WindowAccumulator& acc : accumulators_) {
      hosts_shed += acc.hosts_shed();
      samples_shed += acc.timing_samples_shed();
    }

    verdict.window_index = windows_emitted_;
    verdict.window_start = window_start_;
    verdict.window_end = window_start_ + config_.window;
    verdict.flows_seen = flows_in_window_;
    verdict.degraded = hosts_shed > 0;
    verdict.hosts_shed = hosts_shed;
    verdict.timing_samples_shed = samples_shed;

    // The ring gives every host one shard, so the maps are disjoint and
    // their union is the single detector's map: one find_plotters over it
    // is the oracle's verdict. all_hosts sorts, so map order is irrelevant.
    std::size_t total_hosts = 0;
    for (const detect::FeatureMap& m : shard_features) total_hosts += m.size();
    verdict.features = std::move(shard_features[0]);
    verdict.features.reserve(total_hosts);
    for (std::size_t s = 1; s < shards; ++s) {
      for (auto& [host, f] : shard_features[s]) verdict.features.emplace(host, std::move(f));
      shard_features[s] = detect::FeatureMap{};  // free the husks before θ_hm
    }
    verdict.result = detect::find_plotters(verdict.features, config_.pipeline,
                                           config_.signature_cache ? &cache_ : nullptr);
    sink_(verdict);
  }

  if (obs::enabled()) {
    shard_windows_counter().add();
    // One gauge per shard (label keyed by index): how even the ring spread
    // this window's hosts — the balance number the scaling story rests on.
    for (std::size_t s = 0; s < shards; ++s) {
      obs::Registry::global()
          .gauge("tradeplot_shard_window_hosts",
                 "Hosts a shard tracked in the last closed window",
                 {{"shard", std::to_string(s)}})
          .set(static_cast<double>(accumulators_[s].host_count()));
    }
  }

  for (detect::WindowAccumulator& acc : accumulators_) acc.reset();
  flows_in_window_ = 0;
  ++windows_emitted_;
}

void ShardedDetector::flush() {
  if (!window_open_) return;
  emit();
  window_open_ = false;
}

// ---------------------------------------------------------------------------
// Checkpoint: the same framing discipline as the TPCK image (magic, version,
// payload size, CRC-32) under its own magic: the window cursor, one
// accumulator section per shard, then the detector-wide θ_hm cache. The routing geometry (shard count, vnodes) is part of the payload:
// restoring into a different geometry would silently send future flows of a
// host to a shard that does not hold its accumulated state.

void ShardedDetector::save_checkpoint(std::ostream& out) const {
  const obs::StageTimer save_timer(obs::Stage::kCheckpointSave);
  detect::PayloadWriter w;
  w.put(config_.window);
  w.put(config_.new_ip_grace);
  w.put(static_cast<std::uint64_t>(config_.shards));
  w.put(static_cast<std::uint64_t>(config_.vnodes));
  w.put(static_cast<std::uint8_t>(window_open_));
  w.put(window_start_);
  w.put(static_cast<std::uint64_t>(flows_in_window_));
  w.put(static_cast<std::uint64_t>(windows_emitted_));
  w.put(flows_ingested_total_);
  for (const detect::WindowAccumulator& acc : accumulators_) acc.encode(w);
  cache_.encode(w);

  const std::string& payload = w.bytes();
  const std::uint32_t crc = util::crc32(payload.data(), payload.size());
  const auto put_raw = [&](const void* p, std::size_t n) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  };
  put_raw(&kShardCkptMagic, sizeof(kShardCkptMagic));
  put_raw(&kShardCkptVersion, sizeof(kShardCkptVersion));
  const auto size = static_cast<std::uint64_t>(payload.size());
  put_raw(&size, sizeof(size));
  put_raw(payload.data(), payload.size());
  put_raw(&crc, sizeof(crc));
  out.flush();
  if (!out) throw util::IoError("shard checkpoint write failed");
}

void ShardedDetector::restore_checkpoint(std::istream& in) {
  const obs::StageTimer restore_timer(obs::Stage::kCheckpointRestore);
  const auto read_raw = [&](void* p, std::size_t n) {
    in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in.gcount()) != n)
      throw util::ParseError("shard checkpoint: truncated");
  };
  std::uint32_t magic = 0, version = 0;
  read_raw(&magic, sizeof(magic));
  if (magic != kShardCkptMagic) throw util::ParseError("shard checkpoint: bad magic");
  read_raw(&version, sizeof(version));
  if (version != kShardCkptVersion)
    throw util::ParseError("shard checkpoint: unsupported version " +
                           std::to_string(version));
  std::uint64_t size = 0;
  read_raw(&size, sizeof(size));
  if (size > kShardCkptMaxPayload)
    throw util::ParseError("shard checkpoint: implausible payload size");
  std::string payload(static_cast<std::size_t>(size), '\0');
  read_raw(payload.data(), payload.size());
  std::uint32_t crc = 0;
  read_raw(&crc, sizeof(crc));
  if (crc != util::crc32(payload.data(), payload.size()))
    throw util::ParseError("shard checkpoint: checksum mismatch");

  detect::PayloadReader r(payload);
  const auto window = r.take<double>();
  const auto grace = r.take<double>();
  const auto shards = r.take<std::uint64_t>();
  const auto vnodes = r.take<std::uint64_t>();
  if (window != config_.window || grace != config_.new_ip_grace)
    throw util::ConfigError(
        "shard checkpoint: saved with different window/grace than this detector");
  if (shards != config_.shards || vnodes != config_.vnodes)
    throw util::ConfigError(
        "shard checkpoint: saved with different shard geometry (shards/vnodes) "
        "than this detector");

  const auto open = r.take<std::uint8_t>();
  const auto window_start = r.take<double>();
  const auto flows_in_window = r.take<std::uint64_t>();
  const auto windows_emitted = r.take<std::uint64_t>();
  const auto flows_total = r.take<std::uint64_t>();
  std::vector<detect::WindowAccumulator> accumulators(config_.shards);
  for (detect::WindowAccumulator& acc : accumulators) acc.decode(r);
  detect::HmCache cache;
  cache.decode(r);
  if (!r.exhausted()) throw util::ParseError("shard checkpoint: trailing bytes in payload");

  accumulators_ = std::move(accumulators);
  cache_ = std::move(cache);
  window_open_ = open != 0;
  window_start_ = window_start;
  flows_in_window_ = static_cast<std::size_t>(flows_in_window);
  windows_emitted_ = static_cast<std::size_t>(windows_emitted);
  flows_ingested_total_ = flows_total;
}

void ShardedDetector::save_checkpoint_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw util::IoError("cannot open checkpoint for writing: " + path);
  save_checkpoint(out);
  out.close();
  if (!out) throw util::IoError("checkpoint write failed: " + path);
}

void ShardedDetector::restore_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::IoError("cannot open checkpoint for reading: " + path);
  restore_checkpoint(in);
}

}  // namespace tradeplot::shard
