// Little-endian raw-byte payload codec shared by the streaming-detector
// checkpoint (streaming.cpp) and the θ_hm signature cache (hm_cache.cpp).
//
// The encoded payload is framed, versioned, and CRC-checked by the
// checkpoint writer; these helpers only serialize trivially-copyable scalars
// (and, writing, spans of doubles) into/out of a contiguous buffer, throwing
// util::ParseError on any read past the end so a truncated payload can never
// be half-applied.
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <type_traits>

#include "util/error.h"

namespace tradeplot::detect {

class PayloadWriter {
 public:
  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const char* bytes = reinterpret_cast<const char*>(&value);
    buf_.append(bytes, sizeof(value));
  }

  void put_times(std::span<const double> v) {
    put(static_cast<std::uint64_t>(v.size()));
    if (!v.empty())
      buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(double));
  }

  [[nodiscard]] const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

class PayloadReader {
 public:
  explicit PayloadReader(const std::string& buf) : buf_(buf) {}

  template <typename T>
  T take() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    if (pos_ + sizeof(value) > buf_.size())
      throw util::ParseError("checkpoint: truncated payload");
    std::memcpy(&value, buf_.data() + pos_, sizeof(value));
    pos_ += sizeof(value);
    return value;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }

 private:
  const std::string& buf_;
  std::size_t pos_ = 0;
};

}  // namespace tradeplot::detect
