// Partial-bitstream store (paper Section V).
//
// "Before the start of application execution, partial bitstreams, which
// are mmapped in the user-space in the DDR, are copied into the kernel
// memory. This enables the runtime manager to create a reference between
// the bitstreams, their physical addresses, the tiles they will be loaded
// into, and their respective drivers."
//
// add() copies every image into its own DRAM region at once and it stays
// resident for the life of the store, so a reconfiguration request looks
// its image up synchronously. Lookups land in both StoreStats and the
// global MetricsRegistry (runtime.store.cache_hits).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "soc/memory.hpp"

namespace presp::runtime {

struct BitstreamImage {
  std::string module;
  int tile = -1;
  /// Physical DRAM address of the kernel copy.
  std::uint64_t address = 0;
  std::size_t bytes = 0;
  std::uint32_t crc = 0;
};

struct StoreStats {
  std::uint64_t hits = 0;
  // Every image is resident from add() on: the store never misses or waits.
  std::uint64_t misses = 0;
  long long fetch_wait_cycles = 0;
};

class BitstreamStore {
 public:
  explicit BitstreamStore(soc::MainMemory& memory) : memory_(memory) {}

  /// Registers a partial bitstream for `module` targeting `tile` and
  /// copies it into kernel DRAM. `payload` may be empty (timing-only
  /// experiments); its size is then taken from `bytes`.
  const BitstreamImage& add(int tile, const std::string& module,
                            std::size_t bytes,
                            std::span<const std::uint8_t> payload = {},
                            std::uint32_t crc = 0);

  /// Registers the blanking ("greybox") bitstream for a tile's partition:
  /// module name is empty; loading it leaves the partition empty.
  const BitstreamImage& add_blank(int tile, std::size_t bytes);

  bool has(int tile, const std::string& module) const;
  const BitstreamImage& get(int tile, const std::string& module) const;

  /// The image a reconfiguration or readback request hands to the DFX
  /// controller; counts one store hit per call.
  const BitstreamImage& lookup(int tile, const std::string& module);

  std::vector<BitstreamImage> images() const;
  std::size_t total_bytes() const;

  const StoreStats& stats() const { return stats_; }

 private:
  soc::MainMemory& memory_;
  std::map<std::pair<int, std::string>, BitstreamImage> images_;
  StoreStats stats_;
};

}  // namespace presp::runtime
