#include "runtime/bitstream_store.hpp"

#include <algorithm>

#include "trace/metrics.hpp"
#include "util/error.hpp"

namespace presp::runtime {

namespace {

std::string key_name(int tile, const std::string& module) {
  return "(" + std::to_string(tile) + ", " + module + ")";
}

trace::Counter& hit_counter() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("runtime.store.cache_hits");
  return c;
}

}  // namespace

const BitstreamImage& BitstreamStore::add(
    int tile, const std::string& module, std::size_t bytes,
    std::span<const std::uint8_t> payload, std::uint32_t crc) {
  PRESP_REQUIRE(bytes > 0, "empty bitstream");
  PRESP_REQUIRE(!has(tile, module), "bitstream for " +
                                        key_name(tile, module) +
                                        " already registered");
  PRESP_REQUIRE(payload.empty() || payload.size() <= bytes,
                "payload larger than image");
  const std::string region =
      "pbs/" + std::to_string(tile) + "/" +
      (module.empty() ? std::string("<blank>") : module);
  const std::uint64_t addr = memory_.allocate(region, bytes);
  if (!payload.empty()) {
    auto dst = memory_.bytes(addr, payload.size());
    std::copy(payload.begin(), payload.end(), dst.begin());
  }
  memory_.attach_blob(addr, soc::BitstreamBlob{module, tile, bytes, crc});
  return images_
      .emplace(std::make_pair(tile, module),
               BitstreamImage{module, tile, addr, bytes, crc})
      .first->second;
}

const BitstreamImage& BitstreamStore::add_blank(int tile,
                                                std::size_t bytes) {
  return add(tile, "", bytes);
}

bool BitstreamStore::has(int tile, const std::string& module) const {
  return images_.find({tile, module}) != images_.end();
}

const BitstreamImage& BitstreamStore::get(int tile,
                                          const std::string& module) const {
  const auto it = images_.find({tile, module});
  PRESP_REQUIRE(it != images_.end(),
                "no bitstream for " + key_name(tile, module));
  return it->second;
}

const BitstreamImage& BitstreamStore::lookup(int tile,
                                             const std::string& module) {
  const BitstreamImage& image = get(tile, module);
  ++stats_.hits;
  hit_counter().add(1);
  return image;
}

std::vector<BitstreamImage> BitstreamStore::images() const {
  std::vector<BitstreamImage> out;
  out.reserve(images_.size());
  for (const auto& [key, image] : images_) out.push_back(image);
  return out;
}

std::size_t BitstreamStore::total_bytes() const {
  std::size_t total = 0;
  for (const auto& [key, image] : images_) total += image.bytes;
  return total;
}

}  // namespace presp::runtime
