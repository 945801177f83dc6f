// Flow artifact cache: key derivation, the PFC2 blob hash and length
// check, blob round-trips, old-format entries, poisoned-entry rejection,
// LRU eviction under the byte cap, and the end-to-end warm-run contract
// (one modified member invalidates exactly that member).
#include "core/flow_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "bitstream/artifact_io.hpp"
#include "core/flow.hpp"
#include "core/reference_designs.hpp"
#include "fabric/device.hpp"
#include "netlist/soc_config.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "wami/accelerators.hpp"

namespace presp::core {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

/// Gives `pbs` the payload `words`, as a decoding entry point leaves it:
/// the stream, its word count and CRC, and the decoded view. Every test
/// that builds a payload by hand goes through here.
void set_words(bitstream::Bitstream& pbs, std::vector<std::uint32_t> words) {
  pbs.rle = bitstream::rle_compress(words);
  pbs.word_count = words.size();
  pbs.crc = bitstream::crc32(words);
  pbs.words = std::move(words);
}

ModuleEntry sample_module(std::uint32_t seed) {
  ModuleEntry e;
  e.utilization = {1000 + seed, 2000, 3, 4};
  e.routed = true;
  e.fmax_mhz = 100.5;
  e.pbs.design = "soc";
  e.pbs.module = "mod" + std::to_string(seed);
  e.pbs.pblock = {1, 4, 0, 1};
  e.pbs.partial = true;
  set_words(e.pbs, std::vector<std::uint32_t>(4096, seed));
  return e;
}

TEST(KeyBuilderTest, FieldsDoNotAlias) {
  const auto k1 = FlowCache::KeyBuilder().add("ab").add("c").finish();
  const auto k2 = FlowCache::KeyBuilder().add("a").add("bc").finish();
  EXPECT_NE(k1, k2);
  const auto k3 = FlowCache::KeyBuilder().add(12LL).add(3LL).finish();
  const auto k4 = FlowCache::KeyBuilder().add(1LL).add(23LL).finish();
  EXPECT_NE(k3, k4);
}

TEST(KeyBuilderTest, DeterministicAndSensitiveToEveryField) {
  const auto base =
      FlowCache::KeyBuilder().add("mod").add(100LL).add(1.5).finish();
  EXPECT_EQ(FlowCache::KeyBuilder().add("mod").add(100LL).add(1.5).finish(),
            base);
  EXPECT_NE(FlowCache::KeyBuilder().add("mox").add(100LL).add(1.5).finish(),
            base);
  EXPECT_NE(FlowCache::KeyBuilder().add("mod").add(101LL).add(1.5).finish(),
            base);
  EXPECT_NE(FlowCache::KeyBuilder().add("mod").add(100LL).add(1.6).finish(),
            base);
}

TEST(FlowCacheTest, ColdMissThenWarmHitRoundTrips) {
  FlowCacheOptions opt;
  opt.dir = fresh_dir("fc_roundtrip");
  FlowCache cache(opt);

  EXPECT_FALSE(cache.load_module(42).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  const ModuleEntry stored = sample_module(7);
  cache.store_module(42, stored);
  EXPECT_EQ(cache.stats().stores, 1u);

  // A second cache object over the same directory sees the entry.
  FlowCache warm(opt);
  const auto loaded = warm.load_module(42);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(warm.stats().hits, 1u);
  EXPECT_EQ(loaded->utilization.luts, stored.utilization.luts);
  EXPECT_EQ(loaded->routed, stored.routed);
  EXPECT_DOUBLE_EQ(loaded->fmax_mhz, stored.fmax_mhz);
  EXPECT_EQ(loaded->pbs.words, stored.pbs.words);
  EXPECT_EQ(loaded->pbs.rle, stored.pbs.rle);
  EXPECT_EQ(loaded->pbs.word_count, stored.pbs.word_count);
  EXPECT_EQ(loaded->pbs.crc, stored.pbs.crc);
  EXPECT_EQ(loaded->pbs.module, stored.pbs.module);
}

TEST(FlowCacheTest, StaticEntriesRoundTrip) {
  FlowCacheOptions opt;
  opt.dir = fresh_dir("fc_static");
  FlowCache cache(opt);

  StaticMetaEntry meta;
  meta.utilization = {111, 222, 3, 4};
  cache.store_static_meta(1, meta);
  const auto meta_back = cache.load_static_meta(1);
  ASSERT_TRUE(meta_back.has_value());
  EXPECT_EQ(meta_back->utilization.ffs, 222);

  StaticPnrEntry pnr;
  pnr.ok = true;
  pnr.fmax_mhz = 96.5;
  pnr.full_bitstream_bytes = 1234567;
  pnr.cols = 10;
  pnr.rows = 7;
  pnr.usage = {0, 5, 0, 9, 2};
  cache.store_static_pnr(2, pnr);
  const auto pnr_back = cache.load_static_pnr(2);
  ASSERT_TRUE(pnr_back.has_value());
  EXPECT_TRUE(pnr_back->ok);
  EXPECT_EQ(pnr_back->usage, pnr.usage);
  EXPECT_EQ(pnr_back->full_bitstream_bytes, 1234567u);
}

TEST(FlowCacheTest, KindMismatchIsRejected) {
  FlowCacheOptions opt;
  opt.dir = fresh_dir("fc_kind");
  FlowCache cache(opt);
  StaticMetaEntry meta;
  cache.store_static_meta(5, meta);
  // Same key probed as a different kind: schema drift, not a hit.
  EXPECT_FALSE(cache.load_module(5).has_value());
  EXPECT_EQ(cache.stats().poisoned, 1u);
}

TEST(FlowCacheTest, PoisonedEntryIsRejectedAndRemoved) {
  FlowCacheOptions opt;
  opt.dir = fresh_dir("fc_poison");
  FlowCache cache(opt);
  cache.store_module(99, sample_module(1));

  // Flip one payload byte on disk; the blob hash must catch it.
  fs::path victim;
  for (const auto& entry : fs::directory_iterator(opt.dir))
    victim = entry.path();
  ASSERT_FALSE(victim.empty());
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xee');
  }

  FlowCache reopened(opt);
  EXPECT_FALSE(reopened.load_module(99).has_value());
  EXPECT_EQ(reopened.stats().poisoned, 1u);
  EXPECT_EQ(reopened.stats().hits, 0u);
  EXPECT_FALSE(fs::exists(victim));  // rejected entries are deleted

  // Truncation is also rejected.
  cache.store_module(77, sample_module(2));
  for (const auto& entry : fs::directory_iterator(opt.dir))
    fs::resize_file(entry.path(), 10);
  FlowCache truncated(opt);
  EXPECT_FALSE(truncated.load_module(77).has_value());
  EXPECT_EQ(truncated.stats().poisoned, 1u);
}

TEST(FlowCacheTest, EvictsOldestUnderSizeCap) {
  FlowCacheOptions opt;
  opt.dir = fresh_dir("fc_evict");
  // Each sample entry lands around a few hundred bytes compressed; a
  // cap of ~3 entries forces eviction on the fourth store.
  // Probe with a nonzero fill: seed 0 would RLE away to a much smaller
  // blob than the entries stored below and starve the cap.
  FlowCache probe(opt);
  probe.store_module(0, sample_module(9));
  const long long one_entry = probe.stats().bytes;
  ASSERT_GT(one_entry, 0);
  fs::remove_all(opt.dir);

  opt.max_bytes = 3 * one_entry + one_entry / 2;
  FlowCache cache(opt);
  for (std::uint64_t k = 1; k <= 4; ++k) {
    cache.store_module(k, sample_module(static_cast<std::uint32_t>(k)));
    // mtime granularity: make LRU order unambiguous across stores.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, opt.max_bytes);
  // Oldest (key 1) is gone, newest (key 4) survives.
  EXPECT_FALSE(cache.load_module(1).has_value());
  EXPECT_TRUE(cache.load_module(4).has_value());
}

TEST(FlowCacheTest, UnboundedWhenMaxBytesNonPositive) {
  FlowCacheOptions opt;
  opt.dir = fresh_dir("fc_unbounded");
  opt.max_bytes = 0;
  FlowCache cache(opt);
  for (std::uint64_t k = 0; k < 6; ++k)
    cache.store_module(k, sample_module(static_cast<std::uint32_t>(k)));
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(FlowCacheTest, LoadedStreamIsTheStoredOne) {
  FlowCacheOptions opt;
  opt.dir = fresh_dir("fc_stream");
  FlowCache cache(opt);
  ModuleEntry entry = sample_module(4);
  std::vector<std::uint32_t> words = entry.pbs.words;
  words[7] = 0;
  words.insert(words.begin() + 100, 300, 0u);
  set_words(entry.pbs, words);
  cache.store_module(1, entry);

  // The stream-only load verifies the stream and decodes nothing.
  const auto stream = cache.load_module_stream(1);
  ASSERT_TRUE(stream.has_value());
  EXPECT_EQ(stream->pbs.rle, entry.pbs.rle);
  EXPECT_EQ(stream->pbs.word_count, entry.pbs.word_count);
  EXPECT_EQ(stream->pbs.crc, entry.pbs.crc);
  EXPECT_TRUE(stream->pbs.words.empty());
  EXPECT_EQ(stream->pbs.raw_bytes(), entry.pbs.raw_bytes());
  EXPECT_EQ(stream->pbs.compressed_bytes(), entry.pbs.compressed_bytes());

  const auto loaded = cache.load_module(1);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->pbs.rle, entry.pbs.rle);
  EXPECT_EQ(loaded->pbs.words, entry.pbs.words);
  EXPECT_EQ(cache.stats().hits, 2u);

  // Storing what a stream-only load returned writes the same payload.
  cache.store_module(2, *stream);
  EXPECT_EQ(bitstream::read_cache_blob(cache.dir() + "/0000000000000001.pfc", 1)
                .payload,
            bitstream::read_cache_blob(cache.dir() + "/0000000000000002.pfc", 2)
                .payload);
}

/// The only entry file in `dir`.
fs::path only_entry(const std::string& dir) {
  fs::path found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_TRUE(found.empty()) << "more than one entry in " << dir;
    found = entry.path();
  }
  return found;
}

TEST(FlowCacheTest, FlippedRleLiteralFailsTheCrcCheck) {
  FlowCacheOptions opt;
  opt.dir = fresh_dir("fc_crc_gate");
  FlowCache cache(opt);
  cache.store_module(11, sample_module(3));  // every word a literal 3
  const fs::path victim = only_entry(opt.dir);

  // Rewrite the blob with its RLE stream's last literal changed from 3 to
  // 0x13 and a payload hash that matches: only the decoded words' CRC can
  // tell.
  bitstream::CacheBlob blob = bitstream::read_cache_blob(victim.string(), 11);
  ASSERT_EQ(blob.payload[blob.payload.size() - 4], '\x03');
  blob.payload[blob.payload.size() - 4] = '\x13';
  bitstream::write_cache_blob(blob, victim.string());

  FlowCache reopened(opt);
  EXPECT_FALSE(reopened.load_module_stream(11).has_value());
  // The blob verified but its stream failed the CRC walk: a miss, never
  // also a hit.
  EXPECT_EQ(reopened.stats().hits, 0u);
  EXPECT_EQ(reopened.stats().misses, 1u);
  EXPECT_EQ(reopened.stats().poisoned, 1u);
  EXPECT_FALSE(fs::exists(victim));  // rejected entries are deleted

  // The decoding load rejects it the same way.
  bitstream::write_cache_blob(blob, victim.string());
  EXPECT_FALSE(reopened.load_module(11).has_value());
  EXPECT_EQ(reopened.stats().hits, 0u);
  EXPECT_EQ(reopened.stats().misses, 2u);
  EXPECT_EQ(reopened.stats().poisoned, 2u);
  EXPECT_FALSE(fs::exists(victim));
}

// ---- the PFC2 blob format -------------------------------------------

/// blob_hash64 with every lane assembled from its bytes by shifts: the
/// value the word-wide hash must give on any host.
std::uint64_t reference_blob_hash(const std::string& bytes) {
  const auto step = [](std::uint64_t h, std::uint64_t lane) {
    h = (h ^ lane) * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 32);
  };
  std::uint64_t h = 0xcbf29ce484222325ull ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t lane = 0;
    for (int b = 0; b < 8; ++b)
      lane |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(bytes[i + b]))
              << (8 * b);
    h = step(h, lane);
  }
  for (; i < bytes.size(); ++i)
    h = step(h, static_cast<unsigned char>(bytes[i]));
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

TEST(BlobHashTest, KnownValues) {
  EXPECT_EQ(bitstream::blob_hash64(""), 0xefd01f60ba992926ull);
  EXPECT_EQ(bitstream::blob_hash64("a"), 0x3b6e3aba47b3d474ull);
  // One lane, then one lane and a one-byte tail.
  EXPECT_EQ(bitstream::blob_hash64("12345678"), 0xa8709f471ce06098ull);
  EXPECT_EQ(bitstream::blob_hash64("123456789"), 0x0b02b645c8fe6568ull);
  EXPECT_EQ(bitstream::blob_hash64(std::string(16, '\0')),
            0x8d7833c0c7050bbcull);
  // Lengths are hashed: a zero byte more is a different payload.
  EXPECT_NE(bitstream::blob_hash64(std::string(15, '\0')),
            bitstream::blob_hash64(std::string(16, '\0')));
}

TEST(BlobHashTest, EverySingleByteFlipChangesTheHash) {
  Rng rng(0x50464332);
  std::vector<std::string> inputs;
  for (std::size_t n = 0; n <= 17; ++n) {
    std::string bytes;
    for (std::size_t i = 0; i < n; ++i)
      bytes.push_back(static_cast<char>(rng.next_u64()));
    inputs.push_back(bytes);
  }
  std::string long_input(10'000, '\0');
  for (char& c : long_input) c = static_cast<char>(rng.next_u64());
  inputs.push_back(long_input);

  for (const std::string& input : inputs) {
    const std::uint64_t hash = bitstream::blob_hash64(input);
    EXPECT_EQ(hash, reference_blob_hash(input)) << input.size() << " bytes";
    // 0x80 at byte 7 of a lane is its bit 63, which a word-wide FNV-1a
    // never carries out of bit 63.
    for (std::size_t i = 0; i < input.size(); ++i)
      for (const unsigned char flip : {0x80, 0xFF}) {
        std::string flipped = input;
        flipped[i] = static_cast<char>(flipped[i] ^ flip);
        EXPECT_NE(bitstream::blob_hash64(flipped), hash)
            << input.size() << " bytes, byte " << i << " ^ "
            << static_cast<int>(flip);
      }
  }
  // Bit 63 flipped in two lanes: the pair cancels in a word-wide FNV-1a.
  const std::string base = long_input.substr(0, 64);
  const std::uint64_t hash = bitstream::blob_hash64(base);
  for (std::size_t a = 7; a < base.size(); a += 8)
    for (std::size_t b = a + 8; b < base.size(); b += 8) {
      std::string flipped = base;
      flipped[a] = static_cast<char>(flipped[a] ^ 0x80);
      flipped[b] = static_cast<char>(flipped[b] ^ 0x80);
      EXPECT_NE(bitstream::blob_hash64(flipped), hash)
          << "lanes " << a / 8 << " and " << b / 8;
    }
}

/// Little-endian header fields, as a blob file lays them out.
void append_le(std::string& out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out.push_back(static_cast<char>(value >> (8 * i)));
}

/// A blob file by hand: `magic` | kind | key | hash | len | payload.
std::string blob_file(const char* magic, std::uint32_t kind,
                      std::uint64_t key, std::uint64_t hash,
                      std::uint64_t len, const std::string& payload) {
  std::string file(magic, 4);
  append_le(file, kind, 4);
  append_le(file, key, 8);
  append_le(file, hash, 8);
  append_le(file, len, 8);
  return file + payload;
}

TEST(CacheBlobTest, LengthOtherThanTheFileHoldsThrows) {
  const std::string dir = fresh_dir("blob_len");
  fs::create_directories(dir);
  const std::string path = dir + "/0000000000000007.pfc";
  const std::string payload = "8 bytes!";
  // A 40-byte file whose header claims 200 MiB: rejected from the file
  // size, before a payload buffer is sized.
  std::ofstream(path, std::ios::binary)
      << blob_file("PFC2", 3, 7, bitstream::blob_hash64(payload),
                   200ull << 20, payload);
  ASSERT_EQ(fs::file_size(path), 40u);
  EXPECT_THROW(bitstream::read_cache_blob(path, 7), InvalidArgument);
  // Bytes past the declared payload are not ignored either.
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << blob_file("PFC2", 3, 7, bitstream::blob_hash64("8 bytes"), 7,
                   payload);
  EXPECT_THROW(bitstream::read_cache_blob(path, 7), InvalidArgument);
  // The same file declaring its true length reads back.
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << blob_file("PFC2", 3, 7, bitstream::blob_hash64(payload), 8,
                   payload);
  EXPECT_EQ(bitstream::read_cache_blob(path, 7).payload, payload);
}

TEST(FlowCacheTest, Pfc1EntriesAreMissesNotPoisoned) {
  FlowCacheOptions opt;
  opt.dir = fresh_dir("fc_pfc1");
  const std::string payload = [&] {
    FlowCache writer(FlowCacheOptions{fresh_dir("fc_pfc1_payload")});
    writer.store_module(1, sample_module(4));
    return bitstream::read_cache_blob(writer.dir() + "/0000000000000001.pfc",
                                      1)
        .payload;
  }();
  // The same entry under the previous tool version: its key chain starts
  // from that version's tag, and its blob is PFC1, hashed with FNV-1a.
  const auto key_under = [](const char* version) {
    std::uint64_t h = bitstream::fnv1a64(std::string(version));
    std::string chunk;
    append_le(chunk, 3, 8);
    chunk += "mod";
    return bitstream::fnv1a64(chunk) ^ (h * 0x100000001b3ull);
  };
  const std::uint64_t new_key = FlowCache::KeyBuilder().add("mod").finish();
  ASSERT_EQ(key_under(kFlowCacheToolVersion), new_key);
  const std::uint64_t old_key = key_under("presp-flow-cache/1");
  ASSERT_NE(old_key, new_key);
  const auto pfc1 = [&](std::uint64_t key) {
    return blob_file("PFC1", 3, key, bitstream::fnv1a64(payload),
                     payload.size(), payload);
  };
  const auto path_for = [&](std::uint64_t key) {
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.pfc",
                  static_cast<unsigned long long>(key));
    return opt.dir + "/" + name;
  };
  fs::create_directories(opt.dir);
  const std::string old_path = path_for(old_key);
  std::ofstream(old_path, std::ios::binary) << pfc1(old_key);
  // Older than anything stored below.
  fs::last_write_time(old_path, fs::file_time_type::clock::now() -
                                    std::chrono::hours(1));

  // At its old key's path the entry is never opened: the new key misses.
  FlowCache cache(opt);
  EXPECT_EQ(cache.stats().bytes,
            static_cast<long long>(fs::file_size(old_path)));
  EXPECT_FALSE(cache.load_module_stream(new_key).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().poisoned, 0u);
  EXPECT_TRUE(fs::exists(old_path));

  // LRU evicts it like any entry: a cap that holds one entry keeps the
  // fresh store.
  FlowCacheOptions capped = opt;
  capped.max_bytes = static_cast<long long>(fs::file_size(old_path));
  FlowCache evicting(capped);
  evicting.store_module(new_key, sample_module(4));
  EXPECT_EQ(evicting.stats().evictions, 1u);
  EXPECT_FALSE(fs::exists(old_path));
  EXPECT_TRUE(evicting.load_module_stream(new_key).has_value());

  // At the exact path of a requested key it is rejected and removed,
  // never trusted.
  const std::string new_path = path_for(new_key);
  std::ofstream(new_path, std::ios::binary | std::ios::trunc)
      << pfc1(new_key);
  FlowCache reopened(opt);
  EXPECT_FALSE(reopened.load_module_stream(new_key).has_value());
  EXPECT_EQ(reopened.stats().hits, 0u);
  EXPECT_EQ(reopened.stats().misses, 1u);
  EXPECT_EQ(reopened.stats().poisoned, 1u);
  EXPECT_FALSE(fs::exists(new_path));
}

// ---- binary parsers under seeded mutation ---------------------------

/// One seeded byte flip, truncation or insertion, as JsonMutationTest
/// applies them to the JSON artifacts.
void mutate(std::string& bytes, Rng& rng) {
  const std::size_t pos = rng.next_below(bytes.size());
  const auto byte = static_cast<char>(1 + rng.next_below(255));
  switch (rng.next_below(3)) {
    case 0: bytes[pos] = static_cast<char>(bytes[pos] ^ byte); break;
    case 1: bytes.resize(pos); break;
    default: bytes.insert(pos, 1, byte); break;
  }
}

/// Literal bursts between zero runs, so mutations land on literals, zero
/// markers and run lengths alike.
std::vector<std::uint32_t> bursty_words(Rng& rng, std::size_t count) {
  std::vector<std::uint32_t> words;
  while (words.size() < count) {
    for (std::uint64_t n = 1 + rng.next_below(8); n > 0; --n)
      words.push_back(static_cast<std::uint32_t>(rng.next_u64() | 1));
    words.insert(words.end(), 1 + rng.next_below(300), 0u);
  }
  words.resize(count);
  return words;
}

// PFC1 module payloads, each mutant rewritten under a matching payload hash
// so it reaches the payload parser and the RLE checks: every mutant must be
// rejected (poisoned and removed) by both loads, or accepted by both with
// the same stream and CRC and decode to words whose CRC matches.
TEST(FlowCacheMutationTest, ModulePayloadsRejectOrLoadCrcCleanWords) {
  constexpr std::uint64_t kSeed = 0x50464331;
  constexpr int kMutations = 1000;
  constexpr std::uint64_t kKey = 21;
  Rng rng(kSeed);
  FlowCacheOptions opt;
  opt.dir = fresh_dir("fc_mutation");
  opt.max_bytes = 0;
  FlowCache cache(opt);
  ModuleEntry entry = sample_module(5);
  set_words(entry.pbs, bursty_words(rng, 3000));
  cache.store_module(kKey, entry);
  const std::string path = only_entry(opt.dir).string();
  const bitstream::CacheBlob stored = bitstream::read_cache_blob(path, kKey);

  // One warning per rejected mutant would drown the test log.
  const LogLevel level = log_level();
  set_log_level(LogLevel::kError);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    bitstream::CacheBlob blob = stored;
    mutate(blob.payload, rng);
    bitstream::write_cache_blob(blob, path);
    const std::uint64_t poisoned = cache.stats().poisoned;
    const auto streamed = cache.load_module_stream(kKey);
    EXPECT_EQ(cache.stats().poisoned, poisoned + (streamed ? 0 : 1))
        << "seed " << kSeed << " mutation " << i;
    EXPECT_EQ(fs::exists(path), streamed.has_value())
        << "seed " << kSeed << " mutation " << i;
    bitstream::write_cache_blob(blob, path);
    const auto loaded = cache.load_module(kKey);
    if (loaded.has_value() != streamed.has_value()) {
      ADD_FAILURE() << "the loads disagree: seed " << kSeed << " mutation "
                    << i;
      continue;
    }
    if (loaded) {
      ++accepted;
      EXPECT_EQ(loaded->pbs.rle, streamed->pbs.rle)
          << "seed " << kSeed << " mutation " << i;
      EXPECT_EQ(loaded->pbs.crc, streamed->pbs.crc)
          << "seed " << kSeed << " mutation " << i;
      EXPECT_TRUE(streamed->pbs.words.empty())
          << "seed " << kSeed << " mutation " << i;
      EXPECT_EQ(loaded->pbs.words.size(), loaded->pbs.word_count)
          << "seed " << kSeed << " mutation " << i;
      EXPECT_EQ(bitstream::crc32(loaded->pbs.words), loaded->pbs.crc)
          << "seed " << kSeed << " mutation " << i;
    } else {
      EXPECT_EQ(cache.stats().poisoned, poisoned + 2)
          << "seed " << kSeed << " mutation " << i;
      EXPECT_FALSE(fs::exists(path)) << "seed " << kSeed << " mutation " << i;
    }
  }
  set_log_level(level);
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutations / 2);
}

// PBS1 files read back by read_bitstream: every mutant must throw a
// presp::Error or read words whose CRC matches.
TEST(FlowCacheMutationTest, BitstreamFilesRejectOrReadCrcCleanWords) {
  constexpr std::uint64_t kSeed = 0x50425331;
  constexpr int kMutations = 1000;
  Rng rng(kSeed);
  bitstream::Bitstream pbs;
  pbs.design = "soc";
  pbs.module = "mod";
  pbs.pblock = {1, 4, 0, 1};
  pbs.partial = true;
  set_words(pbs, bursty_words(rng, 3000));
  const std::string dir = fresh_dir("pbs_mutation");
  fs::create_directories(dir);
  const std::string path = dir + "/m.pbs";
  bitstream::write_bitstream(pbs, path);
  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), {});
  }

  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::string mutated = file;
    mutate(mutated, rng);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << mutated;
    try {
      const bitstream::Bitstream read = bitstream::read_bitstream(path);
      ++accepted;
      EXPECT_EQ(bitstream::crc32(read.words), read.crc)
          << "seed " << kSeed << " mutation " << i;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << kSeed << " mutation " << i
                    << " threw a non-presp::Error: " << e.what();
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, kMutations / 2);
}

// ---- end-to-end: the flow over a real SoC config --------------------

FlowOptions fast_options(const std::string& cache_dir) {
  FlowOptions opt;
  opt.pnr.placer.temperature_steps = 4;
  opt.pnr.placer.moves_per_cell = 1;
  opt.pnr.router.max_iterations = 1;
  opt.floorplan.refine_iterations = 20;
  opt.cache.dir = cache_dir;
  return opt;
}

TEST(FlowCacheIntegrationTest, WarmRunHitsEveryStageAndMatchesCold) {
  const std::string dir = fresh_dir("fc_flow");
  const auto lib = characterization_library();
  const auto device = fabric::Device::vc707();
  const auto config = characterization_soc(3);
  const PrEspFlow flow(device, lib, fast_options(dir));

  const FlowResult cold = flow.run(config);
  EXPECT_TRUE(cold.cache_enabled);
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_GT(cold.cache.stores, 0u);

  const FlowResult warm = flow.run(config);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_GT(warm.cache.hits, 0u);
  // Warm results are bit-identical to cold ones.
  EXPECT_EQ(warm.full_bitstream_bytes, cold.full_bitstream_bytes);
  EXPECT_EQ(warm.achieved_fmax_mhz, cold.achieved_fmax_mhz);
  EXPECT_EQ(warm.physical_ok, cold.physical_ok);
  EXPECT_EQ(warm.total_minutes, cold.total_minutes);
  ASSERT_EQ(warm.modules.size(), cold.modules.size());
  for (std::size_t i = 0; i < warm.modules.size(); ++i) {
    EXPECT_EQ(warm.modules[i].pbs_compressed_bytes,
              cold.modules[i].pbs_compressed_bytes);
    EXPECT_EQ(warm.modules[i].utilization.luts,
              cold.modules[i].utilization.luts);
    EXPECT_EQ(warm.modules[i].routed, cold.modules[i].routed);
  }
  // The warm run executed no synthesis or P&R tasks at all.
  EXPECT_EQ(warm.exec.tasks, 0u);
}

TEST(FlowCacheIntegrationTest, WarmSocXTracesOneReadAndVerifyPerHit) {
  const std::string dir = fresh_dir("fc_flow_trace");
  const auto device = fabric::Device::vc707();
  const auto lib = wami::wami_library();
  const auto config = wami::table6_soc('X');
  const PrEspFlow flow(device, lib, fast_options(dir));
  ASSERT_EQ(flow.run(config).cache.hits, 0u);

  trace::TraceConfig trace_config;
  trace_config.categories = static_cast<std::uint32_t>(trace::Category::kFlow);
  trace::TraceSession::instance().start(trace_config);
  const FlowResult warm = flow.run(config);
  const trace::TraceReport report = trace::TraceSession::instance().stop();
  ASSERT_EQ(warm.cache.misses, 0u);
  ASSERT_GT(warm.cache.hits, 0u);

  // Each hit reads its blob, then verifies its payload, inside a load.
  std::uint64_t reads = 0;
  std::uint64_t verifies = 0;
  std::uint64_t open_loads = 0;
  std::string last;
  for (const trace::TraceEvent& e : report.events) {
    if (e.name == "flow:cache-load")
      open_loads += e.phase == trace::Phase::kBegin ? 1 : -1;
    if (e.phase != trace::Phase::kBegin) continue;
    if (e.name == "cache:read") {
      ++reads;
      EXPECT_EQ(open_loads, 1u);
      EXPECT_NE(last, "cache:read");
    } else if (e.name == "cache:verify") {
      ++verifies;
      EXPECT_EQ(last, "cache:read");
    } else {
      continue;
    }
    last = e.name;
  }
  EXPECT_EQ(reads, warm.cache.hits);
  EXPECT_EQ(verifies, warm.cache.hits);
}

TEST(FlowCacheIntegrationTest, WarmParallelMatchesWarmSerial) {
  const std::string dir = fresh_dir("fc_flow_par");
  const auto lib = characterization_library();
  const auto device = fabric::Device::vc707();
  const auto config = characterization_soc(3);

  FlowOptions serial_opt = fast_options(dir);
  const PrEspFlow serial_flow(device, lib, serial_opt);
  const FlowResult cold = serial_flow.run(config);

  FlowOptions par_opt = fast_options(dir);
  par_opt.exec_threads = 4;
  const PrEspFlow par_flow(device, lib, par_opt);
  const FlowResult warm_par = par_flow.run(config);

  EXPECT_EQ(warm_par.cache.misses, 0u);
  EXPECT_EQ(warm_par.full_bitstream_bytes, cold.full_bitstream_bytes);
  EXPECT_EQ(warm_par.achieved_fmax_mhz, cold.achieved_fmax_mhz);
  for (std::size_t i = 0; i < warm_par.modules.size(); ++i)
    EXPECT_EQ(warm_par.modules[i].pbs_compressed_bytes,
              cold.modules[i].pbs_compressed_bytes);
}

TEST(FlowCacheIntegrationTest, ConstraintChangeInvalidatesPnrStages) {
  const std::string dir = fresh_dir("fc_flow_inval");
  const auto lib = characterization_library();
  const auto device = fabric::Device::vc707();
  const auto config = characterization_soc(3);

  const PrEspFlow flow(device, lib, fast_options(dir));
  flow.run(config);

  // Different router budget = different constraints = fresh P&R keys;
  // the synthesis-stage entry (static-meta) still hits.
  FlowOptions changed = fast_options(dir);
  changed.pnr.router.max_iterations = 2;
  const PrEspFlow changed_flow(device, lib, changed);
  const FlowResult rerun = changed_flow.run(config);
  EXPECT_GT(rerun.cache.misses, 0u);
  EXPECT_GT(rerun.cache.hits, 0u);  // static-meta reused
  EXPECT_GT(rerun.exec.tasks, 0u);  // P&R actually re-ran
}

}  // namespace
}  // namespace presp::core
