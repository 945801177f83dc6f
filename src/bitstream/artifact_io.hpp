// Bitstream artifact files: what the flow drops on disk next to its
// report, and what the runtime's user-space loader mmaps at boot.
//
// Binary format (little-endian):
//   magic "PBS1" | u32 flags (bit0 = partial)
//   u32 design_len | design bytes | u32 module_len | module bytes
//   i32 col_lo, col_hi, row_lo, row_hi
//   u32 crc | u64 word_count | u64 compressed_count
//   compressed words (RLE stream; see bitstream.hpp)
// The fields after the pblock are the Bitstream's own `crc`, `word_count`
// and `rle`: writing never compresses or decodes. `crc` is crc32 of the
// decoded words; the PFC2 module payload below stores the same stream and
// CRC.
#pragma once

#include <cstdint>
#include <string>

#include "bitstream/bitstream.hpp"

namespace presp::bitstream {

/// Writes the bitstream's stream (`rle`, `word_count`, `crc`) to `path`.
/// Throws InvalidArgument on I/O errors.
void write_bitstream(const Bitstream& bitstream, const std::string& path);

/// Reads a bitstream file back, decoded: fills `rle`, `word_count` and
/// `words` with rle_decode (whose rle_check pass computes the CRC),
/// restores the metadata and checks that CRC against the stored one, so
/// the check covers the decode and not just the bytes on disk. Throws
/// InvalidArgument on malformed files and Error on CRC mismatch.
Bitstream read_bitstream(const std::string& path);

/// Canonical artifact file name for a partial bitstream.
std::string pbs_filename(const std::string& design,
                         const std::string& partition,
                         const std::string& module);

// ------------------------------------------------- flow-cache blobs
//
// Container format for the content-hashed flow artifact cache (see
// core/flow_cache.hpp). One blob per cache entry, little-endian:
//
//   magic "PFC2" | u32 kind | u64 key | u64 payload_hash (blob_hash64
//   over the payload bytes) | u64 payload_len | payload bytes
//
// read_cache_blob() checks the declared length against the file before it
// allocates, re-derives the payload hash and cross-checks both it and the
// expected key, so a truncated, bit-flipped or mis-keyed file is rejected
// (throws) instead of poisoning a flow run. PFC1, the previous format,
// hashed its payload with byte-wise FNV-1a; a PFC1 file fails the magic
// check.

/// 64-bit FNV-1a over arbitrary bytes, one byte per step: the cache's key
/// hash (keys hash short canonical key strings).
std::uint64_t fnv1a64(const void* data, std::size_t size);
std::uint64_t fnv1a64(const std::string& text);

/// The PFC2 payload hash: one 8-byte little-endian lane per step (xor,
/// multiply, xor-shift fold), the last size % 8 bytes one per step, then
/// a finalizer. The value is the same on any host endianness. Every input
/// bit reaches every output bit: in a word-wide FNV-1a a lane's bit 63
/// only ever reaches bit 63, so two such flips cancel.
std::uint64_t blob_hash64(const void* data, std::size_t size);
std::uint64_t blob_hash64(const std::string& payload);

struct CacheBlob {
  std::uint32_t kind = 0;  // entry schema tag (flow_cache.hpp enumerates)
  std::uint64_t key = 0;   // content-hash cache key
  std::string payload;     // opaque serialized entry
};

/// Writes atomically (tmp file + rename) so a crash mid-write can never
/// leave a half-entry behind. Throws InvalidArgument on I/O errors.
void write_cache_blob(const CacheBlob& blob, const std::string& path);

/// Reads and verifies a blob. Throws InvalidArgument on malformed files
/// (bad magic, a length other than the file holds) and Error on
/// key/payload-hash mismatch (corruption).
CacheBlob read_cache_blob(const std::string& path,
                          std::uint64_t expected_key);

}  // namespace presp::bitstream
