// Little-endian wire primitives shared by the SMR serializers
// (command/session/kv_store/replica). One checked implementation: the
// putters append to a byte vector, Writer fills a buffer its caller sized
// once up front (the snapshot writers), and the getters consume via a
// cursor and report truncation instead of reading out of bounds.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace allconcur::smr::wire {

/// Stores `v` little-endian at `p`: one memcpy on little-endian hosts.
template <typename T>
inline void store_le(std::uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

template <typename T>
inline T load_le(const std::uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = sizeof(T); i-- > 0;) v = (v << 8) | p[i];
  }
  return v;
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.resize(out.size() + 4);
  store_le(out.data() + out.size() - 4, v);
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  out.resize(out.size() + 8);
  store_le(out.data() + out.size() - 8, v);
}

inline bool get_u32(std::span<const std::uint8_t> b, std::size_t& at,
                    std::uint32_t& v) {
  if (b.size() < 4 || at > b.size() - 4) return false;
  v = load_le<std::uint32_t>(b.data() + at);
  at += 4;
  return true;
}

inline bool get_u64(std::span<const std::uint8_t> b, std::size_t& at,
                    std::uint64_t& v) {
  if (b.size() < 8 || at > b.size() - 8) return false;
  v = load_le<std::uint64_t>(b.data() + at);
  at += 8;
  return true;
}

/// [u32 length][length bytes].
inline void put_blob(std::vector<std::uint8_t>& out,
                     std::span<const std::uint8_t> blob) {
  put_u32(out, static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

/// A blob as a view into `b` (no copy); false on truncation.
inline bool get_blob_view(std::span<const std::uint8_t> b, std::size_t& at,
                          std::span<const std::uint8_t>& out) {
  std::uint32_t len = 0;
  if (!get_u32(b, at, len)) return false;
  if (len > b.size() - at) return false;
  out = b.subspan(at, len);
  at += len;
  return true;
}

inline bool get_blob(std::span<const std::uint8_t> b, std::size_t& at,
                     std::vector<std::uint8_t>& out) {
  std::span<const std::uint8_t> view;
  if (!get_blob_view(b, at, view)) return false;
  out.assign(view.begin(), view.end());
  return true;
}

/// Writes into a buffer the caller sized once for the whole encoding, so
/// a large snapshot costs one allocation and a memcpy per field.
class Writer {
 public:
  explicit Writer(std::uint8_t* at) : at_(at) {}

  void u32(std::uint32_t v) {
    store_le(at_, v);
    at_ += 4;
  }
  void u64(std::uint64_t v) {
    store_le(at_, v);
    at_ += 8;
  }
  void bytes(std::span<const std::uint8_t> b) {
    if (!b.empty()) std::memcpy(at_, b.data(), b.size());
    at_ += b.size();
  }
  /// [u32 length][length bytes], as put_blob.
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    bytes(b);
  }

 private:
  std::uint8_t* at_;
};

}  // namespace allconcur::smr::wire
