// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
// guarding every snapshot section and WAL record in the durable store.
//
// It sits on the recovery path: every snapshot load checksums each byte
// once — the per-section CRCs are computed from the payloads and folded,
// with the section headers, into the whole-file CRC by Crc32Combine — and
// so does every checkpoint (≈23 MB at n=10⁵). A bytewise table loop
// (≈330 MB/s) would make recovery CRC-bound, so this is portable
// slicing-by-8: eight lookup tables fold 8 bytes per step (≈1.7 GB/s on a
// 2.1 GHz x86-64), with a bytewise tail. No SIMD or CRC instructions, and
// the values are exactly the bytewise CRC's, so the on-disk format does
// not depend on which implementation wrote it. Crc32Chunked spreads one
// large payload over a worker pool and folds the pieces back together with
// Crc32Combine, to the same value.

#ifndef DKC_STORE_CRC32_H_
#define DKC_STORE_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dkc {

class ThreadPool;

/// CRC-32 of `data`. `seed` chains multi-buffer checksums: pass the
/// previous call's result to continue (0 starts a fresh checksum).
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

/// CRC-32 of the concatenation a + b from crc_a = Crc32(a), crc_b =
/// Crc32(b) and len_b = |b|, without touching the bytes: zlib's GF(2)
/// method, crc_a times x^(8·len_b) modulo the polynomial, xor crc_b.
/// O(log len_b) carry-less multiplies.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t len_b);

/// Block size of Crc32Chunked: large enough that the per-block combine is
/// noise, small enough that a multi-MB snapshot section spreads over a
/// pool's workers.
inline constexpr size_t kCrc32BlockBytes = size_t{64} << 10;

/// Crc32(data, seed), computed as kCrc32BlockBytes blocks checksummed on
/// ParallelChunks (across `pool`'s workers when given, inline otherwise)
/// and folded in order with Crc32Combine.
uint32_t Crc32Chunked(std::string_view data, ThreadPool* pool,
                      uint32_t seed = 0);

}  // namespace dkc

#endif  // DKC_STORE_CRC32_H_
