// CRC32C (Castagnoli, reflected polynomial 0x82F63B78): the frame checksum
// of core/message.
//
// A CRC detects every burst error of 32 bits or fewer, so in particular
// every single-byte flip anywhere in the covered bytes. On x86-64 the
// SSE4.2 `crc32` instruction computes it; the choice is made once, at run
// time, so the library needs no architecture flag. Everywhere else a
// portable slicing-by-8 table path runs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace allconcur::core {

/// CRC32C of the `n` bytes at `p`, continuing from `crc`: pass 0 to start,
/// or a previous result to extend it (crc32c(crc32c(0, a), b) is the CRC
/// of a followed by b).
std::uint32_t crc32c(std::uint32_t crc, const std::uint8_t* p, std::size_t n);

/// crc32c() continued over `count` zero bytes without materializing them:
/// O(log count) applications of precomputed GF(2) "append 2^k zero bytes"
/// operators. Size-only payloads (sim and bench traffic) are summed this
/// way.
std::uint32_t crc32c_zeros(std::uint32_t crc, std::uint64_t count);

namespace detail {

/// The two implementations behind crc32c(), exposed so tests can check
/// both against the same vectors regardless of the host.
std::uint32_t crc32c_table(std::uint32_t crc, const std::uint8_t* p,
                           std::size_t n);
/// Does this CPU have the SSE4.2 crc32 instruction?
bool crc32c_hw_available();
/// SSE4.2 path; call only when crc32c_hw_available().
std::uint32_t crc32c_hw(std::uint32_t crc, const std::uint8_t* p,
                        std::size_t n);

}  // namespace detail
}  // namespace allconcur::core
