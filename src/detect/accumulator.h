// Per-window, per-host feature accumulation, factored out of
// StreamingDetector so one window's state can be owned by different drivers:
// the single-threaded streaming detector keeps exactly one accumulator, the
// sharded detector (src/shard/) keeps one per worker shard and routes each
// flow to the shard owning its internal host.
//
// The accumulator knows nothing about windows rolling or verdicts — it only
// absorbs the initiator/responder sides of flows, enforces the timing-sample
// budget, finalizes into a FeatureMap, and round-trips its state through the
// checkpoint payload codec.
//
// Layout (flat and columnar, no per-host or per-pair allocation):
//   * a flat open-addressing host table mapping every address (0.0.0.0
//     included) to a dense slot, in first-seen order;
//   * one HostSlot of scalar counters per slot;
//   * one append log of {slot, dst, t} per window — every initiated flow's
//     start time, in arrival order — stored in fixed-size chunks, so growing
//     it never copies entries and its memory follows the sample count
//     instead of jumping at powers of two.
// finalize() groups the log by slot (stable counting sort), then each host's
// entries by (dst, t), and derives distinct destinations, churn and the
// pooled interstitials in one linear pass — the same features the batch
// extractor's finalize_destinations() computes from its nested maps, which
// stay separate as the independent oracle. reset() clears the table and the
// log but keeps their chunks, so rolling a window frees nothing.
//
// encode() produces exactly the per-host section of the v2 TPCK checkpoint:
// hosts in first-seen slot order, each host's destinations ascending with
// their times sorted, so an image is a pure function of the flow sequence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "detect/features.h"

namespace tradeplot::detect {

class PayloadReader;
class PayloadWriter;

class WindowAccumulator {
 public:
  /// Records `src` initiating a flow to `dst` at time `t`. Buffers the start
  /// time for churn/interstitial evidence unless the host was already shed;
  /// when `timing_budget` is non-zero and the buffered total crosses it, the
  /// lowest-evidence hosts are shed (fewest samples first, ties by address)
  /// down to ~3/4 of the budget. The caller has already decided `src` is
  /// internal.
  void apply_initiator(simnet::Ipv4 src, simnet::Ipv4 dst, double t,
                       std::uint64_t bytes_src, bool failed, std::size_t timing_budget);

  /// Records internal host `dst` answering a successful flow at time `t`.
  void apply_responder(simnet::Ipv4 dst, double t, std::uint64_t bytes_dst);

  /// Finalizes every host's per-destination state (churn + interstitials)
  /// into a FeatureMap. The window's state stays in place; call reset()
  /// before reusing the accumulator for the next window.
  [[nodiscard]] FeatureMap finalize(double grace);

  /// Drops all per-host state and the shed bookkeeping (window roll),
  /// keeping the table's and the log's capacity.
  void reset();

  [[nodiscard]] std::size_t host_count() const { return slots_.size(); }
  [[nodiscard]] std::size_t timing_samples() const { return timing_samples_; }
  [[nodiscard]] std::size_t hosts_shed() const { return hosts_shed_; }
  [[nodiscard]] std::size_t timing_samples_shed() const { return timing_samples_shed_; }

  /// Serializes (timing bookkeeping + per-host records) in the v2 TPCK
  /// payload order; decode() is the exact inverse and throws
  /// util::ParseError on truncation or an inconsistent image.
  void encode(PayloadWriter& w) const;
  void decode(PayloadReader& r);

 private:
  /// Scalar per-host counters (HostFeatures without the timing evidence).
  struct HostSlot {
    simnet::Ipv4 host;
    bool timing_shed = false;  // budget shed dropped this host's timing state
    double first_activity = 0.0;
    std::size_t flows_initiated = 0;
    std::size_t flows_failed = 0;
    std::size_t flows_received = 0;
    std::uint64_t bytes_sent_initiated = 0;
    std::uint64_t bytes_sent_received = 0;
    std::size_t timing_samples = 0;  // this host's entries in the log
  };

  /// One buffered start time. In the grouped copy, `slot` holds the entry's
  /// arrival rank within its host instead (the host is implied by position).
  struct LogEntry {
    std::uint32_t slot;
    std::uint32_t dst;
    double t;
  };

  /// The append log, in fixed chunks of 8 Ki entries (128 KiB) that never
  /// move: appending copies no earlier entry, and truncate() keeps every
  /// chunk for the next window.
  class ChunkedLog {
   public:
    ChunkedLog() = default;
    ChunkedLog(ChunkedLog&& o) noexcept
        : chunks_(std::move(o.chunks_)), size_(std::exchange(o.size_, 0)) {}
    ChunkedLog& operator=(ChunkedLog&& o) noexcept {
      chunks_ = std::move(o.chunks_);
      size_ = std::exchange(o.size_, 0);
      return *this;
    }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] LogEntry& operator[](std::size_t i) const {
      return chunks_[i >> kChunkBits][i & (kChunkEntries - 1)];
    }
    void push_back(const LogEntry& e) {
      if ((size_ & (kChunkEntries - 1)) == 0 && (size_ >> kChunkBits) == chunks_.size())
        chunks_.push_back(std::make_unique_for_overwrite<LogEntry[]>(kChunkEntries));
      (*this)[size_++] = e;
    }
    /// Keeps the first `size` entries.
    void truncate(std::size_t size) { size_ = size; }
    /// Calls f(first, count) for each chunk's run of entries, in order.
    template <typename F>
    void for_each_run(F&& f) const {
      for (std::size_t c = 0; c * kChunkEntries < size_; ++c)
        f(chunks_[c].get(), std::min(kChunkEntries, size_ - c * kChunkEntries));
    }

   private:
    static constexpr unsigned kChunkBits = 13;
    static constexpr std::size_t kChunkEntries = std::size_t{1} << kChunkBits;
    std::vector<std::unique_ptr<LogEntry[]>> chunks_;
    std::size_t size_ = 0;
  };

  /// The slot of `host`, inserted on first sight; lowers its first_activity
  /// to `t`.
  [[nodiscard]] std::uint32_t touch(simnet::Ipv4 host, double t);
  void grow_table();
  void shed_timing_state(std::size_t timing_budget);
  /// Fills grouped_/offsets_: host s's entries are grouped_[offsets_[s],
  /// offsets_[s + 1]), sorted by (dst, t) with ties in arrival order.
  void group_log() const;
  /// Distinct destinations in one host's grouped entries.
  [[nodiscard]] static std::size_t count_groups(const LogEntry* begin, const LogEntry* end);

  /// Open-addressing table, linear probing, load <= 1/2. Each word packs
  /// (address << 32) | (slot + 1); 0 marks an empty bucket, so every
  /// address — 0.0.0.0 included — is a valid key.
  std::vector<std::uint64_t> table_;
  std::vector<HostSlot> slots_;
  ChunkedLog log_;
  // Scratch for group_log(), kept across windows and checkpoint saves so
  // grouping allocates nothing in steady state; it is reallocated, at the
  // exact size, only when a window holds more entries than any before.
  // encode() writes it, so two encode() calls on one accumulator must not
  // run concurrently.
  mutable std::vector<LogEntry> grouped_;
  mutable std::vector<std::size_t> offsets_;

  std::size_t timing_samples_ = 0;  // buffered across all hosts
  std::size_t hosts_shed_ = 0;
  std::size_t timing_samples_shed_ = 0;
};

}  // namespace tradeplot::detect
