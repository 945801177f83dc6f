#include "soc/memory.hpp"

namespace presp::soc {

MainMemory::MainMemory(MemoryOptions options)
    : options_(options), data_(options.size_bytes, 0) {
  PRESP_REQUIRE(options_.size_bytes >= 1024, "memory too small");
  PRESP_REQUIRE(options_.words_per_cycle >= 1 && options_.access_latency >= 0,
                "bad memory timing");
}

std::uint64_t MainMemory::allocate(const std::string& name,
                                   std::size_t bytes) {
  PRESP_REQUIRE(regions_.find(name) == regions_.end(),
                "region '" + name + "' already allocated");
  const std::uint64_t base = (next_free_ + 63) & ~std::uint64_t{63};
  // Written as a difference so a huge request cannot wrap past the check.
  if (base > data_.size() || bytes > data_.size() - base)
    throw InvalidArgument("out of modeled DRAM allocating '" + name + "'");
  next_free_ = base + bytes;
  regions_[name] = {base, bytes};
  return base;
}

std::uint64_t MainMemory::region(const std::string& name) const {
  const auto it = regions_.find(name);
  PRESP_REQUIRE(it != regions_.end(), "unknown region '" + name + "'");
  return it->second.first;
}

std::size_t MainMemory::region_size(const std::string& name) const {
  const auto it = regions_.find(name);
  PRESP_REQUIRE(it != regions_.end(), "unknown region '" + name + "'");
  return it->second.second;
}

std::span<std::uint8_t> MainMemory::bytes(std::uint64_t addr,
                                          std::size_t len) {
  PRESP_REQUIRE(addr <= data_.size() && len <= data_.size() - addr,
                "memory access out of range");
  return {data_.data() + addr, len};
}

std::span<const std::uint8_t> MainMemory::bytes(std::uint64_t addr,
                                                std::size_t len) const {
  PRESP_REQUIRE(addr <= data_.size() && len <= data_.size() - addr,
                "memory access out of range");
  return {data_.data() + addr, len};
}

void MainMemory::write_u32(std::uint64_t addr, std::uint32_t value) {
  auto span = bytes(addr, 4);
  for (int i = 0; i < 4; ++i)
    span[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
}

std::uint32_t MainMemory::read_u32(std::uint64_t addr) const {
  const auto span = bytes(addr, 4);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i)
    value |= static_cast<std::uint32_t>(span[static_cast<std::size_t>(i)])
             << (8 * i);
  return value;
}

void MainMemory::attach_blob(std::uint64_t addr, BitstreamBlob blob) {
  blobs_[addr] = std::move(blob);
}

const BitstreamBlob& MainMemory::blob_at(std::uint64_t addr) const {
  const auto it = blobs_.find(addr);
  PRESP_REQUIRE(it != blobs_.end(),
                "no bitstream registered at address " + std::to_string(addr));
  return it->second;
}

void MainMemory::corrupt_blob(std::uint64_t addr) {
  const auto it = blobs_.find(addr);
  PRESP_REQUIRE(it != blobs_.end(),
                "no bitstream registered at address " + std::to_string(addr));
  it->second.corrupted = true;
}

bool MainMemory::consume_corruption(std::uint64_t addr) {
  const auto it = blobs_.find(addr);
  if (it == blobs_.end()) return false;
  const bool was = it->second.corrupted;
  it->second.corrupted = false;
  return was;
}

long long MainMemory::stream_cycles(long long words) const {
  if (words <= 0) return 0;
  return options_.access_latency +
         (words + options_.words_per_cycle - 1) / options_.words_per_cycle;
}

}  // namespace presp::soc
