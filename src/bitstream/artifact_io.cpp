#include "bitstream/artifact_io.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/error.hpp"

namespace presp::bitstream {

namespace {

constexpr char kMagic[4] = {'P', 'B', 'S', '1'};

template <typename T>
void put(std::ofstream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T get(std::ifstream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw InvalidArgument("truncated bitstream file");
  return value;
}

void put_string(std::ofstream& out, const std::string& text) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(text.size()));
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string get_string(std::ifstream& in) {
  const auto len = get<std::uint32_t>(in);
  if (len > (1u << 20)) throw InvalidArgument("implausible string length");
  std::string text(len, '\0');
  in.read(text.data(), len);
  if (!in) throw InvalidArgument("truncated bitstream file");
  return text;
}

}  // namespace

std::string pbs_filename(const std::string& design,
                         const std::string& partition,
                         const std::string& module) {
  return design + "_" + partition + "_" + module + ".pbs";
}

void write_bitstream(const Bitstream& bitstream, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    throw InvalidArgument("cannot write bitstream to '" + path + "'");
  out.write(kMagic, sizeof(kMagic));
  put<std::uint32_t>(out, bitstream.partial ? 1u : 0u);
  put_string(out, bitstream.design);
  put_string(out, bitstream.module);
  put<std::int32_t>(out, bitstream.pblock.col_lo);
  put<std::int32_t>(out, bitstream.pblock.col_hi);
  put<std::int32_t>(out, bitstream.pblock.row_lo);
  put<std::int32_t>(out, bitstream.pblock.row_hi);
  put<std::uint32_t>(out, bitstream.crc);
  put<std::uint64_t>(out, bitstream.word_count);
  put<std::uint64_t>(out, bitstream.rle.size());
  out.write(reinterpret_cast<const char*>(bitstream.rle.data()),
            static_cast<std::streamsize>(bitstream.rle.size() * 4));
  if (!out) throw InvalidArgument("write to '" + path + "' failed");
}

Bitstream read_bitstream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw InvalidArgument("cannot read bitstream from '" + path + "'");
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw InvalidArgument("'" + path + "' is not a PBS1 bitstream file");

  Bitstream bs;
  bs.partial = (get<std::uint32_t>(in) & 1u) != 0;
  bs.design = get_string(in);
  bs.module = get_string(in);
  bs.pblock.col_lo = get<std::int32_t>(in);
  bs.pblock.col_hi = get<std::int32_t>(in);
  bs.pblock.row_lo = get<std::int32_t>(in);
  bs.pblock.row_hi = get<std::int32_t>(in);
  bs.crc = get<std::uint32_t>(in);
  const auto word_count = get<std::uint64_t>(in);
  const auto compressed_count = get<std::uint64_t>(in);
  // Cap both counts before allocating: a corrupted or hostile header must
  // not drive a multi-GB allocation (or overflow compressed_count * 4).
  // 1 Gi words = 4 GiB, far above any full-device bitstream we model.
  constexpr std::uint64_t kMaxWords = 1ull << 30;
  if (word_count > kMaxWords || compressed_count > kMaxWords)
    throw InvalidArgument("implausible bitstream payload size in '" + path +
                          "'");
  // RLE worst case: every word is an isolated zero (2 output words each).
  if (compressed_count > 2 * word_count)
    throw InvalidArgument("RLE stream longer than its payload in '" + path +
                          "'");
  bs.rle.resize(static_cast<std::size_t>(compressed_count));
  in.read(reinterpret_cast<char*>(bs.rle.data()),
          static_cast<std::streamsize>(compressed_count) * 4);
  if (!in) throw InvalidArgument("truncated bitstream payload");
  RleDecoded decoded = rle_decode(bs.rle, word_count);
  if (decoded.words.size() != word_count)
    throw InvalidArgument("bitstream payload length mismatch");
  if (decoded.crc != bs.crc)
    throw Error("bitstream CRC mismatch in '" + path + "'");
  bs.word_count = word_count;
  bs.words = std::move(decoded.words);
  return bs;
}

// ------------------------------------------------- flow-cache blobs

std::uint64_t fnv1a64(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a64(const std::string& text) {
  return fnv1a64(text.data(), text.size());
}

namespace {
/// Odd, so each lane step is invertible in both the state and the lane.
constexpr std::uint64_t kLaneMul = 0x9E3779B97F4A7C15ull;

/// Xors one lane into the state, multiplies (carrying each bit upward)
/// and folds the high half down (so the next multiply carries the top
/// bits too). For a fixed state the step is a bijection of the lane, so
/// two payloads of one length that differ in one lane always hash apart.
constexpr std::uint64_t lane_step(std::uint64_t h, std::uint64_t lane) {
  h = (h ^ lane) * kLaneMul;
  return h ^ (h >> 32);
}
}  // namespace

std::uint64_t blob_hash64(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull ^ static_cast<std::uint64_t>(size);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t lane = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&lane, bytes + i, sizeof(lane));
    } else {
      for (int b = 0; b < 8; ++b)
        lane |= static_cast<std::uint64_t>(bytes[i + b]) << (8 * b);
    }
    h = lane_step(h, lane);
  }
  for (; i < size; ++i) h = lane_step(h, bytes[i]);
  // Finalizer (MurmurHash3's fmix64): the last lane's bits reach every
  // output bit.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

std::uint64_t blob_hash64(const std::string& payload) {
  return blob_hash64(payload.data(), payload.size());
}

namespace {
constexpr char kCacheMagic[4] = {'P', 'F', 'C', '2'};
/// magic | kind | key | payload_hash | payload_len.
constexpr std::uint64_t kCacheHeaderBytes = 4 + 4 + 8 + 8 + 8;
/// Cache payloads are bounded: the largest entry (a static stage with its
/// routing-state vector) stays well under this on any modeled device.
constexpr std::uint64_t kMaxCachePayload = 1ull << 28;  // 256 MiB
}  // namespace

void write_cache_blob(const CacheBlob& blob, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out)
      throw InvalidArgument("cannot write cache blob to '" + tmp + "'");
    out.write(kCacheMagic, sizeof(kCacheMagic));
    put<std::uint32_t>(out, blob.kind);
    put<std::uint64_t>(out, blob.key);
    put<std::uint64_t>(out, blob_hash64(blob.payload));
    put<std::uint64_t>(out, static_cast<std::uint64_t>(blob.payload.size()));
    out.write(blob.payload.data(),
              static_cast<std::streamsize>(blob.payload.size()));
    if (!out) throw InvalidArgument("write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw InvalidArgument("cannot publish cache blob at '" + path + "'");
  }
}

CacheBlob read_cache_blob(const std::string& path,
                          std::uint64_t expected_key) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in)
    throw InvalidArgument("cannot read cache blob from '" + path + "'");
  const auto file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kCacheMagic, sizeof(kCacheMagic)) != 0)
    throw InvalidArgument("'" + path + "' is not a PFC2 cache blob");
  CacheBlob blob;
  blob.kind = get<std::uint32_t>(in);
  blob.key = get<std::uint64_t>(in);
  const auto payload_hash = get<std::uint64_t>(in);
  const auto payload_len = get<std::uint64_t>(in);
  if (payload_len > kMaxCachePayload)
    throw InvalidArgument("implausible cache payload size in '" + path +
                          "'");
  // The header is trusted only as far as the file goes: the payload is
  // exactly the bytes after it, checked before anything is allocated.
  if (payload_len != file_bytes - kCacheHeaderBytes)
    throw InvalidArgument("cache blob '" + path +
                          "' is not as long as its header declares");
  if (blob.key != expected_key)
    throw Error("cache blob key mismatch in '" + path +
                "' (stale or mis-filed entry)");
  blob.payload.resize(static_cast<std::size_t>(payload_len));
  in.read(blob.payload.data(),
          static_cast<std::streamsize>(blob.payload.size()));
  if (!in) throw InvalidArgument("truncated cache blob '" + path + "'");
  if (blob_hash64(blob.payload) != payload_hash)
    throw Error("cache blob payload hash mismatch in '" + path +
                "' (corrupt entry)");
  return blob;
}

}  // namespace presp::bitstream
