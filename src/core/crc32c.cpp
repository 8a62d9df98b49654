#include "core/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace allconcur::core {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

// The implementations below run on the raw CRC register; crc32c() values
// are its complement (initial value and final xor both 0xFFFFFFFF).

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: t[0] is the classic byte table, t[k][b] advances
/// t[0][b] through k further zero bytes.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1u) ? kPoly : 0u);
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = t[k - 1][b];
      t[k][b] = (prev >> 8) ^ t[0][prev & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// A linear map on the 32-bit register over GF(2): column i is the image
/// of bit i. Only used to build the tables below.
using Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t apply(const Matrix& m, std::uint32_t reg) {
  std::uint32_t out = 0;
  for (std::size_t i = 0; i < 32; ++i, reg >>= 1) {
    if (reg & 1u) out ^= m[i];
  }
  return out;
}

/// The same map, nibble-sliced for run-time use: eight lookups into 512
/// bytes instead of 32 data-dependent bit tests.
using Operator = std::array<std::array<std::uint32_t, 16>, 8>;

constexpr Operator slice(const Matrix& m) {
  Operator op{};
  for (std::size_t k = 0; k < 8; ++k) {
    for (std::uint32_t d = 0; d < 16; ++d) op[k][d] = apply(m, d << (4 * k));
  }
  return op;
}

constexpr std::uint32_t apply(const Operator& op, std::uint64_t reg) {
  std::uint32_t out = 0;
  for (std::size_t k = 0; k < 8; ++k) out ^= op[k][(reg >> (4 * k)) & 0xfu];
  return out;
}

/// kZeroRun[k] appends 2^k zero bytes to the register. Feeding a zero
/// byte is linear in the register (no data term), so the map for 1 byte
/// is read off the byte table and each further one is the square of the
/// previous.
constexpr std::array<Operator, 64> make_zero_runs() {
  Matrix m{};
  for (std::size_t i = 0; i < 32; ++i) {
    const std::uint32_t bit = 1u << i;
    m[i] = (bit >> 8) ^ kTables[0][bit & 0xffu];
  }
  std::array<Operator, 64> ops{};
  for (std::size_t k = 0; k < ops.size(); ++k) {
    ops[k] = slice(m);
    Matrix squared{};
    for (std::size_t i = 0; i < 32; ++i) squared[i] = apply(m, m[i]);
    m = squared;
  }
  return ops;
}

constexpr std::array<Operator, 64> kZeroRun = make_zero_runs();

#if defined(__x86_64__)

// The crc32 instruction has a latency of three cycles but issues one per
// cycle, so the hardware path runs three independent streams over
// adjacent blocks and merges them: CRC(A||B) = shift_|B|(CRC(A)) ^ CRC(B)
// on the raw register, where shift_|B| appends |B| zero bytes.
constexpr std::size_t kLongBlockLog2 = 13;
constexpr std::size_t kShortBlockLog2 = 8;

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Consumes whole chunks of three 2^`log2` byte blocks from (p, n) into
/// register `c`.
__attribute__((target("sse4.2"))) std::uint64_t crc_three_streams(
    std::uint64_t c, const std::uint8_t*& p, std::size_t& n,
    std::size_t log2) {
  const std::size_t block = std::size_t{1} << log2;
  const Operator& shift = kZeroRun[log2];
  for (; n >= 3 * block; n -= 3 * block, p += 2 * block) {
    std::uint64_t c1 = 0, c2 = 0;
    for (const std::uint8_t* end = p + block; p < end; p += 8) {
      c = _mm_crc32_u64(c, load64(p));
      c1 = _mm_crc32_u64(c1, load64(p + block));
      c2 = _mm_crc32_u64(c2, load64(p + 2 * block));
    }
    c = apply(shift, c) ^ c1;
    c = apply(shift, c) ^ c2;
  }
  return c;
}

#endif

}  // namespace

namespace detail {

std::uint32_t crc32c_table(std::uint32_t crc, const std::uint8_t* p,
                           std::size_t n) {
  const auto& t = kTables;
  std::uint32_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    c ^= static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
    c = t[7][c & 0xffu] ^ t[6][(c >> 8) & 0xffu] ^ t[5][(c >> 16) & 0xffu] ^
        t[4][c >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; --n, ++p) c = (c >> 8) ^ t[0][(c ^ *p) & 0xffu];
  return ~c;
}

#if defined(__x86_64__)

bool crc32c_hw_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  std::uint64_t c = ~crc;
  c = crc_three_streams(c, p, n, kLongBlockLog2);
  c = crc_three_streams(c, p, n, kShortBlockLog2);
  for (; n >= 8; n -= 8, p += 8) c = _mm_crc32_u64(c, load64(p));
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

#else

bool crc32c_hw_available() { return false; }

std::uint32_t crc32c_hw(std::uint32_t crc, const std::uint8_t* p,
                        std::size_t n) {
  return crc32c_table(crc, p, n);
}

#endif

}  // namespace detail

std::uint32_t crc32c(std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  static const auto impl = detail::crc32c_hw_available()
                               ? &detail::crc32c_hw
                               : &detail::crc32c_table;
  return impl(crc, p, n);
}

std::uint32_t crc32c_zeros(std::uint32_t crc, std::uint64_t count) {
  std::uint32_t reg = ~crc;
  for (std::size_t k = 0; count != 0; ++k, count >>= 1) {
    if (count & 1u) reg = apply(kZeroRun[k], reg);
  }
  return ~reg;
}

}  // namespace allconcur::core
