#include "bitstream/bitstream.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace presp::bitstream {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected IEEE polynomial: tables[0] is the
/// classic byte table, and tables[k][i] is the CRC of byte i followed by k
/// zero bytes, so eight table lookups advance the CRC by eight bytes.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Advances a CRC register over one word (four bytes, low byte first).
constexpr std::uint32_t crc_word(std::uint32_t crc, std::uint32_t word) {
  const auto& t = kCrcTables;
  const std::uint32_t x = crc ^ word;
  return t[3][x & 0xFF] ^ t[2][(x >> 8) & 0xFF] ^ t[1][(x >> 16) & 0xFF] ^
         t[0][x >> 24];
}

/// Advances a CRC register over `n` consecutive words: slicing-by-8, two
/// words per step, and a one-word step for an odd last word.
std::uint32_t crc_run(std::uint32_t crc, const std::uint32_t* words,
                      std::size_t n) {
  const auto& t = kCrcTables;
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) {
    const std::uint32_t lo = words[i] ^ crc;
    const std::uint32_t hi = words[i + 1];
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  if (i < n) crc = crc_word(crc, words[i]);
  return crc;
}

/// Feeding zero bytes maps the CRC register linearly over GF(2), so the
/// register after n zero words is the xor of one lookup per register
/// nibble. A ZeroMap holds that map as eight 16-entry tables (512 bytes).
using ZeroMap = std::array<std::array<std::uint32_t, 16>, 8>;
/// kZeroMaps[p][v] advances the register over v * 16^p zero words; v = 0
/// is the identity. A run of any 32-bit length is one map per nibble of
/// its length, up to its highest non-zero nibble. The maps for runs below
/// 4096 words, what a partial's zero runs almost always are, take 24 KB,
/// so each step is eight independent L1 lookups.
using ZeroMaps = std::array<std::array<ZeroMap, 16>, 8>;

constexpr std::uint32_t advance_zeros(const ZeroMap& m, std::uint32_t crc) {
  return m[0][crc & 0xF] ^ m[1][(crc >> 4) & 0xF] ^ m[2][(crc >> 8) & 0xF] ^
         m[3][(crc >> 12) & 0xF] ^ m[4][(crc >> 16) & 0xF] ^
         m[5][(crc >> 20) & 0xF] ^ m[6][(crc >> 24) & 0xF] ^ m[7][crc >> 28];
}

/// The map of `outer` after `inner`: by linearity, each entry is `outer`
/// applied to `inner`'s entry.
constexpr ZeroMap compose(const ZeroMap& outer, const ZeroMap& inner) {
  ZeroMap m{};
  for (std::size_t n = 0; n < 8; ++n)
    for (std::size_t i = 0; i < 16; ++i)
      m[n][i] = advance_zeros(outer, inner[n][i]);
  return m;
}

constexpr ZeroMaps make_zero_maps() {
  ZeroMaps z{};
  for (std::uint32_t n = 0; n < 8; ++n)
    for (std::uint32_t i = 0; i < 16; ++i)
      z[0][1][n][i] = crc_word(i << (4 * n), 0);  // one zero word
  for (std::size_t p = 0; p < 8; ++p) {
    for (std::uint32_t n = 0; n < 8; ++n)
      for (std::uint32_t i = 0; i < 16; ++i) z[p][0][n][i] = i << (4 * n);
    // 16^p zero words: sixteen steps of the previous position.
    if (p > 0) z[p][1] = compose(z[p - 1][15], z[p - 1][1]);
    for (std::size_t v = 2; v < 16; ++v)
      z[p][v] = compose(z[p][1], z[p][v - 1]);
  }
  return z;
}

constexpr ZeroMaps kZeroMaps = make_zero_maps();

/// Advances a CRC register over `run` zero words: one map per nibble of
/// the run length, up to its highest non-zero nibble.
std::uint32_t advance_zero_run(std::uint32_t crc, std::uint32_t run) {
  for (std::size_t p = 0; run != 0; ++p, run >>= 4)
    crc = advance_zeros(kZeroMaps[p][run & 0xF], crc);
  return crc;
}

/// Fills `bs.words` from its stream: the decoded view.
Bitstream decoded(Bitstream bs) {
  bs.words = rle_decode(bs.rle, bs.word_count).words;
  return bs;
}

}  // namespace

std::uint32_t crc32(const std::vector<std::uint32_t>& words) {
  return crc_run(0xFFFFFFFFu, words.data(), words.size()) ^ 0xFFFFFFFFu;
}

std::vector<std::uint32_t> rle_compress(
    const std::vector<std::uint32_t>& words) {
  std::vector<std::uint32_t> out;
  out.reserve(words.size() / 4);
  std::size_t i = 0;
  while (i < words.size()) {
    if (words[i] == 0) {
      std::uint32_t run = 0;
      while (i < words.size() && words[i] == 0 && run < 0xFFFFFFFFu) {
        ++run;
        ++i;
      }
      out.push_back(0);
      out.push_back(run);
    } else {
      out.push_back(words[i]);
      ++i;
    }
  }
  return out;
}

RleCheck rle_check(const std::vector<std::uint32_t>& stream,
                   std::uint64_t max_words) {
  const std::uint32_t* const data = stream.data();
  const std::size_t size = stream.size();
  std::uint64_t total = 0;
  std::uint32_t crc = 0xFFFFFFFFu;
  std::size_t i = 0;
  while (i < size) {
    if (data[i] != 0) {
      // A run of literals: one bound check, one CRC pass.
      std::size_t end = i + 1;
      while (end < size && data[end] != 0) ++end;
      PRESP_REQUIRE(end - i <= max_words - total,
                    "RLE stream overflows the declared payload size");
      crc = crc_run(crc, data + i, end - i);
      total += end - i;
      i = end;
      continue;
    }
    PRESP_REQUIRE(i + 1 < size,
                  "truncated RLE stream: zero marker without run length");
    const std::uint32_t run = data[i + 1];
    PRESP_REQUIRE(run <= max_words - total,
                  "RLE run overflows the declared payload size");
    total += run;
    crc = advance_zero_run(crc, run);
    i += 2;
  }
  return {total, crc ^ 0xFFFFFFFFu};
}

RleCheck RleEmitter::finish() {
  close_literals();
  flush_zeros();
  return {words_, crc_ ^ 0xFFFFFFFFu};
}

void RleEmitter::close_literals() {
  crc_ = crc_run(crc_, stream_.data() + (stream_.size() - open_),
                 static_cast<std::size_t>(open_));
  words_ += open_;
  open_ = 0;
}

void RleEmitter::flush_zeros() {
  while (pending_ != 0) {
    const auto run = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pending_, 0xFFFFFFFFu));
    stream_.push_back(0);
    stream_.push_back(run);
    crc_ = advance_zero_run(crc_, run);
    words_ += run;
    pending_ -= run;
  }
}

RleDecoded rle_decode(const std::vector<std::uint32_t>& compressed,
                      std::uint64_t max_words) {
  const RleCheck check = rle_check(compressed, max_words);
  RleDecoded out;
  out.words.resize(static_cast<std::size_t>(check.word_count));  // zeros
  std::uint32_t* dst = out.words.data();
  for (std::size_t i = 0; i < compressed.size(); ++i) {
    if (compressed[i] != 0)
      *dst++ = compressed[i];
    else
      dst += compressed[++i];  // runs stay zero
  }
  out.crc = check.crc;
  return out;
}

void BitstreamGenerator::emit(Bitstream& bs, const fabric::Pblock& region,
                              const netlist::Netlist& nl,
                              const pnr::Placement* placement) const {
  PRESP_REQUIRE(region.valid(), "invalid bitstream region");

  // LUT usage per (col,row) cell inside the region.
  const auto rows = static_cast<std::size_t>(device_.region_rows());
  std::vector<std::int64_t> usage(
      static_cast<std::size_t>(device_.num_columns()) * rows, 0);
  if (placement != nullptr) {
    for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
      const auto& cell = nl.cell(c);
      if (cell.kind != netlist::CellKind::kLogic) continue;
      const pnr::GridLoc& loc = placement->at(c);
      if (!loc.valid() || !region.contains(loc.col, loc.row)) continue;
      usage[static_cast<std::size_t>(loc.col) * rows +
            static_cast<std::size_t>(loc.row)] += cell.resources.luts;
    }
  }

  const int words_per_frame = device_.frames().frame_bytes / 4;
  // A partial's stream is ~11-18% of its words (Table VI range); a
  // denser region grows the stream past this reservation as usual.
  bs.rle.reserve(static_cast<std::size_t>(
                     fabric::pblock_frames(device_, region)) *
                 static_cast<std::size_t>(words_per_frame) / 4);
  RleEmitter out(bs.rle);

  for (int col = region.col_lo; col <= region.col_hi; ++col) {
    const fabric::ColumnType type = device_.column_type(col);
    const int frames = device_.frames().frames_for(type);
    const std::int64_t capacity =
        std::max<std::int64_t>(1, device_.cell_resources(col).luts);
    for (int row = region.row_lo; row <= region.row_hi; ++row) {
      const std::int64_t used =
          usage[static_cast<std::size_t>(col) * rows +
                static_cast<std::size_t>(row)];
      const double fill =
          std::min(1.0, static_cast<double>(used) /
                            static_cast<double>(capacity));
      // Configuration density: even fully used logic leaves most LUT
      // truth-table/interconnect bits at their defaults; ~28% of words go
      // non-zero at full utilization (plus a small floor of frame ECC /
      // clock-enable words), and used bits cluster into bursts — a
      // configured LUT's truth table and its switchbox entries are
      // adjacent words in the frame. Burstiness is what makes Vivado's
      // compression effective; the resulting compressed partial
      // bitstreams land in the paper's Table VI range (see tests).
      const double density =
          placement == nullptr ? 0.0 : 0.28 * fill + 0.02;
      constexpr int kBurst = 8;
      // Deterministic per-cell content.
      presp::Rng rng(0x9E3779B9ull * static_cast<std::uint64_t>(col + 1) +
                     1000003ull * static_cast<std::uint64_t>(row + 1));
      int burst_left = 0;
      for (int f = 0; f < frames; ++f) {
        for (int w = 0; w < words_per_frame; ++w) {
          if (burst_left == 0 && rng.next_double() < density / kBurst)
            burst_left = kBurst;
          if (burst_left > 0) {
            --burst_left;
            out.literal(static_cast<std::uint32_t>(rng.next_u64() | 1u));
          } else {
            out.zero();
          }
        }
      }
    }
  }
  const RleCheck sums = out.finish();
  bs.word_count = sums.word_count;
  bs.crc = sums.crc;
}

fabric::Pblock BitstreamGenerator::whole_device() const {
  return fabric::Pblock{0, device_.num_columns() - 1, 0,
                        device_.region_rows() - 1};
}

std::size_t BitstreamGenerator::full_raw_bytes() const {
  // The word count emit produces for the whole device.
  const auto words_per_frame =
      static_cast<std::size_t>(device_.frames().frame_bytes / 4);
  return static_cast<std::size_t>(
             fabric::pblock_frames(device_, whole_device())) *
             words_per_frame * 4 +
         Bitstream::kHeaderBytes;
}

Bitstream BitstreamGenerator::full(const std::string& design,
                                   const netlist::Netlist& nl,
                                   const pnr::Placement& placement) const {
  Bitstream bs;
  bs.design = design;
  bs.partial = false;
  bs.pblock = whole_device();
  emit(bs, bs.pblock, nl, &placement);
  return decoded(std::move(bs));
}

Bitstream BitstreamGenerator::partial_stream(
    const std::string& design, const std::string& module,
    const fabric::Pblock& pblock, const netlist::Netlist& nl,
    const pnr::Placement& placement) const {
  Bitstream bs;
  bs.design = design;
  bs.module = module;
  bs.partial = true;
  bs.pblock = pblock;
  emit(bs, pblock, nl, &placement);
  return bs;
}

Bitstream BitstreamGenerator::partial(const std::string& design,
                                      const std::string& module,
                                      const fabric::Pblock& pblock,
                                      const netlist::Netlist& nl,
                                      const pnr::Placement& placement) const {
  return decoded(partial_stream(design, module, pblock, nl, placement));
}

Bitstream BitstreamGenerator::blank(const std::string& design,
                                    const fabric::Pblock& pblock) const {
  Bitstream bs;
  bs.design = design;
  bs.module = "<blank>";
  bs.partial = true;
  bs.pblock = pblock;
  netlist::Netlist empty("blank");
  emit(bs, pblock, empty, nullptr);
  return decoded(std::move(bs));
}

}  // namespace presp::bitstream
