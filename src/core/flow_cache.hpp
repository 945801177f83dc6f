// Content-hashed incremental flow artifact cache.
//
// The PR-ESP flow recomputes synthesis and P&R from scratch on every
// invocation, even when only one OoC module changed since the last run.
// This cache keys every cacheable stage result on a stable 64-bit
// content hash of everything that determines it — the netlist-generator
// inputs (the config text and each referenced module's library resource
// vector stand in for source RTL), the target device, the physical
// constraints (pblock rectangles, floorplan/placer/router options), the
// chosen strategy, and a tool-version tag — and persists the result
// under a cache directory as hash-verified blobs (bitstream/artifact_io
// `PFC2` format: a 64-bit payload hash taken one 8-byte lane per step).
// A warm re-run that touches one accelerator therefore
// reuses every other module's synthesized/routed artifacts and skips
// their synthesis and in-context P&R entirely.
//
// Three entry kinds, chained by key so invalidation composes:
//
//   static-meta (key = H(synth inputs))
//       static checkpoint utilization — enough to floorplan without
//       re-synthesizing the static netlist.
//   static-pnr  (key = H(static-meta key, pblocks, P&R options))
//       static run outcome + the accumulated RoutingState usage vector,
//       so partition runs can negotiate against the locked static routes
//       without re-running static P&R.
//   module      (key = H(module synth inputs, its pblock, static-pnr
//       key, strategy/tau))
//       the module's utilization, route outcome and partial bitstream,
//       stored as its RLE stream with word count and CRC. A load checks
//       that CRC by walking the stream (bitstream::rle_check); only
//       load_module decodes the words as well.
//
// Changing a module's RTL inputs invalidates that module only; changing
// the device, a constraint, the strategy or any tool version invalidates
// everything downstream of it via the key chain. Entries written by an
// older tool version (PFC1 blobs under `presp-flow-cache/1` keys) sit
// under keys no probe asks for: they are never opened, count as misses
// rather than poisoned entries, and age out through LRU eviction.
//
// Eviction is LRU by file modification time under a byte-size cap:
// loads touch their entry, stores evict oldest-first until the cache
// fits. Corrupt, truncated or mis-keyed entries are rejected on load
// (counted as `poisoned`), removed, and treated as misses.
//
// Not thread-safe: the flow probes and stores entries from its driver
// thread only (cache hits are resolved before the task graphs are
// built), which also keeps warm-run results bit-identical to cold runs
// at any pool width.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "fabric/resources.hpp"

namespace presp::core {

/// Bump to invalidate every existing cache entry (algorithm changes in
/// synth/, pnr/, floorplan/, this file's serialization or the blob
/// format are the usual reasons). Version 2 moved to PFC2 blobs.
inline constexpr const char* kFlowCacheToolVersion = "presp-flow-cache/2";

struct FlowCacheOptions {
  std::string dir;  // empty = caching disabled
  /// LRU size cap over all entry files; <= 0 means unbounded.
  long long max_bytes = 256ll << 20;
};

struct FlowCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;
  /// Entries rejected on load (corrupt payload, bad magic, key mismatch).
  std::uint64_t poisoned = 0;
  long long bytes = 0;  // current on-disk footprint
};

/// Cached static synthesis metadata (enough to floorplan + model).
struct StaticMetaEntry {
  fabric::ResourceVec utilization;
};

/// Cached static P&R outcome, including the routing state partition runs
/// negotiate against.
struct StaticPnrEntry {
  bool ok = false;
  double fmax_mhz = 0.0;
  std::uint64_t full_bitstream_bytes = 0;
  std::int32_t cols = 0;
  std::int32_t rows = 0;
  std::vector<std::int32_t> usage;  // RoutingState edge usage, edge order
};

/// Cached per-module stage result: OoC synthesis + in-context P&R +
/// partial bitstream generation, all keyed as one unit.
struct ModuleEntry {
  fabric::ResourceVec utilization;
  bool routed = false;
  double fmax_mhz = 0.0;
  /// Stored and loaded as its stream (`rle`, `word_count`, `crc`); `words`
  /// is never stored, and only load_module fills it.
  bitstream::Bitstream pbs;
};

class FlowCache {
 public:
  /// Creates the directory if needed and indexes existing entries.
  /// Throws InvalidArgument when the directory cannot be created.
  explicit FlowCache(FlowCacheOptions options);

  /// Incremental FNV-1a key builder: fold fields one at a time with
  /// field separators so adjacent fields can't alias ("ab"+"c" vs
  /// "a"+"bc"). Start from `seed_key()` and chain.
  class KeyBuilder {
   public:
    KeyBuilder();
    KeyBuilder& add(const std::string& field);
    KeyBuilder& add(long long value);
    KeyBuilder& add(double value);
    std::uint64_t finish() const { return hash_; }

   private:
    std::uint64_t hash_;
  };

  std::optional<StaticMetaEntry> load_static_meta(std::uint64_t key);
  void store_static_meta(std::uint64_t key, const StaticMetaEntry& entry);

  std::optional<StaticPnrEntry> load_static_pnr(std::uint64_t key);
  void store_static_pnr(std::uint64_t key, const StaticPnrEntry& entry);

  /// The flow's hit path: verifies the stored stream with one rle_check
  /// pass (bounds, word count, CRC) and allocates no decoded words, so
  /// `pbs.words` stays empty.
  std::optional<ModuleEntry> load_module_stream(std::uint64_t key);
  /// load_module_stream plus the decoded view `pbs.words`. Counts hits,
  /// misses and poisoned entries exactly as load_module_stream does.
  std::optional<ModuleEntry> load_module(std::uint64_t key);
  void store_module(std::uint64_t key, const ModuleEntry& entry);

  const FlowCacheStats& stats() const { return stats_; }
  const std::string& dir() const { return options_.dir; }

 private:
  std::string path_for(std::uint64_t key) const;
  /// Reads, verifies and decodes one entry. Counts a hit only when the
  /// decode succeeds; a corrupt entry is rejected as poisoned + miss.
  /// Traced as `cache:read` (file read and blob hash) then `cache:verify`
  /// (payload parse, and a module stream's rle_check).
  template <typename Entry>
  std::optional<Entry> load(std::uint64_t key, std::uint32_t kind,
                            Entry (*decode)(const std::string&));
  void store(std::uint64_t key, std::uint32_t kind, std::string payload);
  /// Oldest-mtime-first eviction until the footprint fits max_bytes.
  void evict_to_fit();
  void touch(const std::string& path);
  /// Drops a corrupt/mis-keyed entry and accounts it as poisoned + miss.
  void reject(const std::string& path, const std::string& why);

  FlowCacheOptions options_;
  FlowCacheStats stats_;
};

}  // namespace presp::core
