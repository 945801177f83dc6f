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
// decoded words; the PFC1 module payload below stores the same stream and
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
//   magic "PFC1" | u32 kind | u64 key | u64 payload_hash (FNV-1a over
//   the payload bytes) | u64 payload_len | payload bytes
//
// read_cache_blob() re-derives the payload hash and cross-checks both it
// and the expected key, so a truncated, bit-flipped or mis-keyed file is
// rejected (throws) instead of poisoning a flow run.

/// 64-bit FNV-1a over arbitrary bytes; the cache's one hash primitive
/// (keys hash canonical key strings, blobs hash their payload).
std::uint64_t fnv1a64(const void* data, std::size_t size);
std::uint64_t fnv1a64(const std::string& text);

struct CacheBlob {
  std::uint32_t kind = 0;  // entry schema tag (flow_cache.hpp enumerates)
  std::uint64_t key = 0;   // content-hash cache key
  std::string payload;     // opaque serialized entry
};

/// Writes atomically (tmp file + rename) so a crash mid-write can never
/// leave a half-entry behind. Throws InvalidArgument on I/O errors.
void write_cache_blob(const CacheBlob& blob, const std::string& path);

/// Reads and verifies a blob. Throws InvalidArgument on malformed or
/// truncated files and Error on key/payload-hash mismatch (corruption).
CacheBlob read_cache_blob(const std::string& path,
                          std::uint64_t expected_key);

}  // namespace presp::bitstream
