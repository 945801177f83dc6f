#include "core/flow_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "bitstream/artifact_io.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace presp::core {

namespace fs = std::filesystem;

namespace {

// Entry schema tags (CacheBlob::kind).
constexpr std::uint32_t kKindStaticMeta = 1;
constexpr std::uint32_t kKindStaticPnr = 2;
constexpr std::uint32_t kKindModule = 3;

// ------------------------------------------------ payload serialization
// Flat little-endian append-only encoding; every entry kind has a fixed
// field order, so a payload that decodes short or with trailing bytes is
// corrupt (the blob-level hash catches virtually all of that first).

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_i32(std::string& out, std::int32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>(static_cast<std::uint32_t>(v) >> (8 * i)));
}

void put_u32(std::string& out, std::uint32_t v) {
  put_i32(out, static_cast<std::int32_t>(v));
}

void put_double(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_string(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out.append(s);
}

/// Appends each word low byte first, into storage sized once: one copy on
/// a little-endian host, bytes by shifts elsewhere.
void put_u32s(std::string& out, const std::vector<std::uint32_t>& words) {
  std::size_t at = out.size();
  out.resize(at + words.size() * 4);
  if constexpr (std::endian::native == std::endian::little) {
    if (!words.empty())
      std::memcpy(out.data() + at, words.data(), words.size() * 4);
  } else {
    for (const std::uint32_t w : words) {
      for (int i = 0; i < 4; ++i)
        out[at + i] = static_cast<char>(w >> (8 * i));
      at += 4;
    }
  }
}

void put_resources(std::string& out, const fabric::ResourceVec& r) {
  put_i64(out, r.luts);
  put_i64(out, r.ffs);
  put_i64(out, r.bram36);
  put_i64(out, r.dsp);
}

class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return static_cast<std::int32_t>(v);
  }
  std::uint32_t u32() { return static_cast<std::uint32_t>(i32()); }
  /// `n` words with one bounds check for the whole run: one copy on a
  /// little-endian host, bytes by shifts elsewhere.
  std::vector<std::uint32_t> u32s(std::uint64_t n) {
    if (n > (data_.size() - pos_) / 4) throw Error("cache payload truncated");
    std::vector<std::uint32_t> words(static_cast<std::size_t>(n));
    const char* p = data_.data() + pos_;
    if constexpr (std::endian::native == std::endian::little) {
      if (!words.empty()) std::memcpy(words.data(), p, words.size() * 4);
    } else {
      for (std::uint32_t& w : words) {
        w = 0;
        for (int i = 0; i < 4; ++i)
          w |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
               << (8 * i);
        p += 4;
      }
    }
    pos_ += words.size() * 4;
    return words;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint64_t len = u64();
    need(len);
    std::string s = data_.substr(pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }
  fabric::ResourceVec resources() {
    fabric::ResourceVec r;
    r.luts = i64();
    r.ffs = i64();
    r.bram36 = i64();
    r.dsp = i64();
    return r;
  }
  void done() const {
    if (pos_ != data_.size()) throw Error("cache payload has trailing bytes");
  }

 private:
  void need(std::uint64_t n) const {
    if (n > data_.size() - pos_) throw Error("cache payload truncated");
  }
  const std::string& data_;
  std::size_t pos_ = 0;
};

std::string encode(const StaticMetaEntry& e) {
  std::string out;
  put_resources(out, e.utilization);
  return out;
}

StaticMetaEntry decode_static_meta(const std::string& payload) {
  Reader r(payload);
  StaticMetaEntry e;
  e.utilization = r.resources();
  r.done();
  return e;
}

std::string encode(const StaticPnrEntry& e) {
  std::string out;
  out.push_back(e.ok ? 1 : 0);
  put_double(out, e.fmax_mhz);
  put_u64(out, e.full_bitstream_bytes);
  put_i32(out, e.cols);
  put_i32(out, e.rows);
  put_u64(out, e.usage.size());
  for (const std::int32_t u : e.usage) put_i32(out, u);
  return out;
}

StaticPnrEntry decode_static_pnr(const std::string& payload) {
  Reader r(payload);
  StaticPnrEntry e;
  e.ok = r.u8() != 0;
  e.fmax_mhz = r.f64();
  e.full_bitstream_bytes = r.u64();
  e.cols = r.i32();
  e.rows = r.i32();
  const std::uint64_t n = r.u64();
  if (n > (1ull << 26)) throw Error("implausible routing state size");
  e.usage.resize(static_cast<std::size_t>(n));
  for (auto& u : e.usage) u = r.i32();
  r.done();
  return e;
}

std::string encode(const ModuleEntry& e) {
  const std::vector<std::uint32_t>& rle = e.pbs.rle;
  std::string out;
  // The fixed-width fields take 94 bytes.
  out.reserve(94 + e.pbs.design.size() + e.pbs.module.size() +
              rle.size() * 4);
  put_resources(out, e.utilization);
  out.push_back(e.routed ? 1 : 0);
  put_double(out, e.fmax_mhz);
  put_string(out, e.pbs.design);
  put_string(out, e.pbs.module);
  put_i32(out, e.pbs.pblock.col_lo);
  put_i32(out, e.pbs.pblock.col_hi);
  put_i32(out, e.pbs.pblock.row_lo);
  put_i32(out, e.pbs.pblock.row_hi);
  out.push_back(e.pbs.partial ? 1 : 0);
  put_u32(out, e.pbs.crc);
  put_u64(out, e.pbs.word_count);
  put_u64(out, rle.size());
  put_u32s(out, rle);
  return out;
}

/// Parses a module payload and verifies its stream with rle_check (word
/// count and CRC against the stored ones) without decoding it.
ModuleEntry decode_module(const std::string& payload) {
  Reader r(payload);
  ModuleEntry e;
  e.utilization = r.resources();
  e.routed = r.u8() != 0;
  e.fmax_mhz = r.f64();
  e.pbs.design = r.str();
  e.pbs.module = r.str();
  e.pbs.pblock.col_lo = r.i32();
  e.pbs.pblock.col_hi = r.i32();
  e.pbs.pblock.row_lo = r.i32();
  e.pbs.pblock.row_hi = r.i32();
  e.pbs.partial = r.u8() != 0;
  e.pbs.crc = r.u32();
  e.pbs.word_count = r.u64();
  const std::uint64_t compressed_count = r.u64();
  constexpr std::uint64_t kMaxWords = 1ull << 30;
  if (e.pbs.word_count > kMaxWords ||
      compressed_count > 2 * e.pbs.word_count + 2)
    throw Error("implausible cached bitstream size");
  e.pbs.rle = r.u32s(compressed_count);
  r.done();
  const bitstream::RleCheck check =
      bitstream::rle_check(e.pbs.rle, e.pbs.word_count);
  if (check.word_count != e.pbs.word_count)
    throw Error("cached bitstream payload length mismatch");
  if (check.crc != e.pbs.crc) throw Error("cached bitstream CRC mismatch");
  return e;
}

}  // namespace

// --------------------------------------------------------- KeyBuilder

FlowCache::KeyBuilder::KeyBuilder()
    : hash_(bitstream::fnv1a64(std::string(kFlowCacheToolVersion))) {}

FlowCache::KeyBuilder& FlowCache::KeyBuilder::add(const std::string& field) {
  // Fold the field length first so "ab"+"c" != "a"+"bc".
  std::string chunk;
  put_u64(chunk, field.size());
  chunk += field;
  hash_ = bitstream::fnv1a64(chunk) ^ (hash_ * 0x100000001b3ull);
  return *this;
}

FlowCache::KeyBuilder& FlowCache::KeyBuilder::add(long long value) {
  std::string chunk;
  put_i64(chunk, value);
  hash_ = bitstream::fnv1a64(chunk) ^ (hash_ * 0x100000001b3ull);
  return *this;
}

FlowCache::KeyBuilder& FlowCache::KeyBuilder::add(double value) {
  std::string chunk;
  put_double(chunk, value);
  hash_ = bitstream::fnv1a64(chunk) ^ (hash_ * 0x100000001b3ull);
  return *this;
}

// ---------------------------------------------------------- FlowCache

FlowCache::FlowCache(FlowCacheOptions options) : options_(std::move(options)) {
  if (options_.dir.empty())
    throw InvalidArgument("FlowCache requires a cache directory");
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (!fs::is_directory(options_.dir))
    throw InvalidArgument("cannot create flow cache directory '" +
                          options_.dir + "'");
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() != ".pfc") continue;
    stats_.bytes += static_cast<long long>(entry.file_size(ec));
  }
}

std::string FlowCache::path_for(std::uint64_t key) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.pfc",
                static_cast<unsigned long long>(key));
  return options_.dir + "/" + name;
}

void FlowCache::touch(const std::string& path) {
  // Best effort: a failed touch only weakens LRU ordering.
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

void FlowCache::reject(const std::string& path, const std::string& why) {
  ++stats_.poisoned;
  ++stats_.misses;
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (!ec) stats_.bytes -= static_cast<long long>(size);
  fs::remove(path, ec);
  PRESP_WARN("flow-cache") << "rejected cache entry " << path << ": " << why;
}

template <typename Entry>
std::optional<Entry> FlowCache::load(std::uint64_t key, std::uint32_t kind,
                                     Entry (*decode)(const std::string&)) {
  // The cache is driver-thread-only by contract (see flow_cache.hpp):
  // load() mutates LRU/stat state.
  const std::string path = path_for(key);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    ++stats_.misses;
    return std::nullopt;
  }
  try {
    const bitstream::CacheBlob blob = [&] {
      const trace::TraceScope span(trace::Category::kFlow, "cache:read");
      return bitstream::read_cache_blob(path, key);
    }();
    Entry entry = [&] {
      const trace::TraceScope span(trace::Category::kFlow, "cache:verify");
      if (blob.kind != kind)
        throw Error("cache entry kind mismatch (schema drift)");
      return decode(blob.payload);
    }();
    // A hit only once the payload has decoded: a poisoned entry counts
    // as a miss alone.
    ++stats_.hits;
    touch(path);
    return entry;
  } catch (const std::exception& e) {
    // Poisoned entry: reject, remove, count as a miss. Never trust
    // partial content.
    reject(path, e.what());
    return std::nullopt;
  }
}

void FlowCache::store(std::uint64_t key, std::uint32_t kind,
                      std::string payload) {
  const std::string path = path_for(key);
  std::error_code ec;
  if (fs::exists(path, ec)) {
    const auto size = fs::file_size(path, ec);
    if (!ec) stats_.bytes -= static_cast<long long>(size);
  }
  bitstream::CacheBlob blob;
  blob.kind = kind;
  blob.key = key;
  blob.payload = std::move(payload);
  bitstream::write_cache_blob(blob, path);
  const auto size = fs::file_size(path, ec);
  if (!ec) stats_.bytes += static_cast<long long>(size);
  ++stats_.stores;
  evict_to_fit();
}

void FlowCache::evict_to_fit() {
  if (options_.max_bytes <= 0 || stats_.bytes <= options_.max_bytes) return;
  struct File {
    fs::path path;
    fs::file_time_type mtime;
    long long size;
  };
  std::vector<File> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() != ".pfc") continue;
    files.push_back({entry.path(), entry.last_write_time(ec),
                     static_cast<long long>(entry.file_size(ec))});
  }
  std::sort(files.begin(), files.end(),
            [](const File& a, const File& b) { return a.mtime < b.mtime; });
  for (const File& file : files) {
    if (stats_.bytes <= options_.max_bytes) break;
    fs::remove(file.path, ec);
    if (!ec) {
      stats_.bytes -= file.size;
      ++stats_.evictions;
    }
  }
}

std::optional<StaticMetaEntry> FlowCache::load_static_meta(std::uint64_t key) {
  return load(key, kKindStaticMeta, decode_static_meta);
}

void FlowCache::store_static_meta(std::uint64_t key,
                                  const StaticMetaEntry& entry) {
  store(key, kKindStaticMeta, encode(entry));
}

std::optional<StaticPnrEntry> FlowCache::load_static_pnr(std::uint64_t key) {
  return load(key, kKindStaticPnr, decode_static_pnr);
}

void FlowCache::store_static_pnr(std::uint64_t key,
                                 const StaticPnrEntry& entry) {
  store(key, kKindStaticPnr, encode(entry));
}

std::optional<ModuleEntry> FlowCache::load_module_stream(std::uint64_t key) {
  return load(key, kKindModule, decode_module);
}

std::optional<ModuleEntry> FlowCache::load_module(std::uint64_t key) {
  std::optional<ModuleEntry> entry = load_module_stream(key);
  // The stream has verified; decoding it cannot fail.
  if (entry)
    entry->pbs.words =
        bitstream::rle_decode(entry->pbs.rle, entry->pbs.word_count).words;
  return entry;
}

void FlowCache::store_module(std::uint64_t key, const ModuleEntry& entry) {
  store(key, kKindModule, encode(entry));
}

}  // namespace presp::core
