#include "runtime/bitstream_source.hpp"

#include <filesystem>
#include <fstream>
#include <memory>

#include "exec/thread_pool.hpp"
#include "util/error.hpp"

namespace presp::runtime {

// ------------------------------------------------------------- memory

void MemoryBitstreamSource::store(int tile, const std::string& module,
                                  std::vector<std::uint8_t> payload) {
  payloads_[{tile, module}] = std::move(payload);
}

std::future<std::vector<std::uint8_t>> MemoryBitstreamSource::fetch(
    int tile, const std::string& module) {
  const auto it = payloads_.find({tile, module});
  PRESP_REQUIRE(it != payloads_.end(),
                "no payload registered for (" + std::to_string(tile) +
                    ", " + module + ")");
  std::promise<std::vector<std::uint8_t>> promise;
  promise.set_value(it->second);
  return promise.get_future();
}

sim::Time MemoryBitstreamSource::latency_cycles(std::size_t bytes) const {
  if (bytes_per_cycle_ <= 0.0) return 0;
  return static_cast<sim::Time>(static_cast<double>(bytes) /
                                bytes_per_cycle_);
}

// --------------------------------------------------------------- file

namespace {

std::string sanitize(const std::string& module) {
  if (module.empty()) return "_blank";
  std::string out = module;
  for (char& c : out) {
    if (c == '/' || c == '\\') c = '_';
  }
  return out;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PRESP_REQUIRE(in.good(), "cannot open bitstream file " + path);
  std::vector<std::uint8_t> data(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return data;
}

}  // namespace

FileBitstreamSource::FileBitstreamSource(std::string directory,
                                         exec::ThreadPool* pool,
                                         FileSourceOptions options)
    : directory_(std::move(directory)), pool_(pool), options_(options) {
  std::filesystem::create_directories(directory_);
}

std::string FileBitstreamSource::path_for(int tile,
                                          const std::string& module) const {
  return directory_ + "/t" + std::to_string(tile) + "_" + sanitize(module) +
         ".pbs";
}

void FileBitstreamSource::store(int tile, const std::string& module,
                                std::vector<std::uint8_t> payload) {
  std::ofstream out(path_for(tile, module),
                    std::ios::binary | std::ios::trunc);
  PRESP_REQUIRE(out.good(),
                "cannot write bitstream file " + path_for(tile, module));
  if (!payload.empty()) {
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  }
  PRESP_REQUIRE(out.good(),
                "short write to bitstream file " + path_for(tile, module));
}

std::future<std::vector<std::uint8_t>> FileBitstreamSource::fetch(
    int tile, const std::string& module) {
  const std::string path = path_for(tile, module);
  auto read = [this, path] {
    std::vector<std::uint8_t> data = read_file(path);
    reads_.fetch_add(1, std::memory_order_relaxed);
    return data;
  };
  if (pool_ == nullptr) {
    return std::async(std::launch::async, read);
  }
  // Bridge the pool's fire-and-forget submit() to a future; the promise
  // lives on the heap until the task fulfills it.
  auto promise =
      std::make_shared<std::promise<std::vector<std::uint8_t>>>();
  auto future = promise->get_future();
  pool_->submit([promise, read] {
    try {
      promise->set_value(read());
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return future;
}

sim::Time FileBitstreamSource::latency_cycles(std::size_t bytes) const {
  sim::Time cycles = static_cast<sim::Time>(
      options_.seek_cycles < 0 ? 0 : options_.seek_cycles);
  if (options_.bytes_per_cycle > 0.0) {
    cycles += static_cast<sim::Time>(static_cast<double>(bytes) /
                                     options_.bytes_per_cycle);
  }
  return cycles;
}

}  // namespace presp::runtime
