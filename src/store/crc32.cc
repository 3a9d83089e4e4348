#include "store/crc32.h"

#include <array>
#include <cstddef>

namespace dkc {
namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 tables: kTables[0] is the classic bytewise table; entry i
// of kTables[t] is the CRC register after feeding byte i followed by t
// zero bytes, so one step folds 8 input bytes with 8 independent lookups.
constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t t = 1; t < tables.size(); ++t) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[t - 1][i];
      tables[t][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kTables = MakeCrcTables();

// a·b modulo the CRC polynomial, both in the reflected representation
// (bit 31 is x⁰): shift-and-add over the bits of a.
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return product;
}

// kX2n[i] = x^(2^i) modulo the polynomial, so x^n is a product of the
// entries for n's set bits. The order of x divides 2³² - 1, so x^(2^32)
// is x again and the table repeats with period 32.
using PowerTable = std::array<uint32_t, 32>;

constexpr PowerTable MakePowerTable() {
  PowerTable table{};
  uint32_t p = 1u << 30;  // x¹
  for (auto& entry : table) {
    entry = p;
    p = MultModP(p, p);
  }
  return table;
}

constexpr PowerTable kX2n = MakePowerTable();

// Little-endian load assembled from bytes (no host-endianness assumption;
// compilers fold it into one load on little-endian targets).
inline uint32_t LoadLE32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLE32(p) ^ c;
    const uint32_t hi = LoadLE32(p + 4);
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t len_b) {
  // Appending len_b bytes multiplies a's register by x^(8·len_b); the
  // pre- and post-conditioning xors cancel in the combination.
  uint32_t shift = 1u << 31;  // x⁰
  for (size_t i = 3; len_b != 0; len_b >>= 1, ++i) {
    if (len_b & 1) shift = MultModP(kX2n[i & 31], shift);
  }
  return MultModP(shift, crc_a) ^ crc_b;
}

}  // namespace dkc
