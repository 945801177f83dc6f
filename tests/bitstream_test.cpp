#include <gtest/gtest.h>

#include "bitstream/bitstream.hpp"
#include "pnr/placer.hpp"
#include "util/error.hpp"

namespace presp::bitstream {
namespace {

/// Bit-at-a-time CRC-32 (reflected IEEE polynomial, each word fed low
/// byte first): the reference the table-driven crc32 must reproduce.
std::uint32_t reference_crc32(const std::vector<std::uint32_t>& words) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint32_t w : words) {
    for (int byte = 0; byte < 4; ++byte) {
      crc ^= (w >> (8 * byte)) & 0xFFu;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownValuesAndSensitivity) {
  EXPECT_EQ(crc32({}), 0u);
  // The standard check value of the bytes "12345678".
  EXPECT_EQ(crc32({0x34333231u, 0x38373635u}), 0x9AE0DAAFu);
  // An odd word count ends in the bytewise tail.
  EXPECT_EQ(crc32({1u, 2u, 3u}), 0xB0E02293u);
  const std::vector<std::uint32_t> words{1, 2, 3, 4};
  auto tweaked = words;
  tweaked[2] ^= 1;
  EXPECT_NE(crc32(words), crc32(tweaked));
  EXPECT_EQ(crc32(words), crc32(words));
}

TEST(Crc32Test, MatchesBytewiseReference) {
  presp::Rng rng(11);
  std::vector<std::uint32_t> words;
  for (std::size_t n = 0; n <= 17; ++n) {
    EXPECT_EQ(crc32(words), reference_crc32(words)) << n << " words";
    words.push_back(static_cast<std::uint32_t>(rng.next_u64()));
  }
  std::vector<std::uint32_t> long_vector(10'000);
  for (std::uint32_t& w : long_vector)
    w = static_cast<std::uint32_t>(rng.next_u64());
  EXPECT_EQ(crc32(long_vector), reference_crc32(long_vector));
}

TEST(FullRawBytesTest, ClosedFormMatchesBuiltImage) {
  netlist::Netlist empty("e");
  const pnr::Placement placement;
  for (const fabric::Device& device :
       {fabric::Device::vc707(), fabric::Device::vcu118(),
        fabric::Device::vcu128()}) {
    const BitstreamGenerator gen(device);
    EXPECT_EQ(gen.full_raw_bytes(),
              gen.full("soc", empty, placement).raw_bytes())
        << device.name();
  }
}

/// Decodes `compressed`, declaring `words.size()` words, and checks the
/// words and the CRC against crc32 and the bit-at-a-time reference; the
/// decoder-free rle_check must report the same word count and CRC.
void expect_decodes_to(const std::vector<std::uint32_t>& compressed,
                       const std::vector<std::uint32_t>& words) {
  const RleDecoded decoded = rle_decode(compressed, words.size());
  EXPECT_EQ(decoded.words, words);
  EXPECT_EQ(decoded.crc, crc32(words));
  EXPECT_EQ(decoded.crc, reference_crc32(words));
  const RleCheck check = rle_check(compressed, words.size());
  EXPECT_EQ(check.word_count, words.size());
  EXPECT_EQ(check.crc, decoded.crc);
}

TEST(RleTest, RoundTripMixedContent) {
  std::vector<std::uint32_t> words;
  presp::Rng rng(3);
  for (int i = 0; i < 10'000; ++i)
    words.push_back(rng.next_bool(0.2)
                        ? static_cast<std::uint32_t>(rng.next_u64() | 1)
                        : 0u);
  const auto compressed = rle_compress(words);
  EXPECT_LT(compressed.size(), words.size());
  expect_decodes_to(compressed, words);
}

TEST(RleTest, AllZerosCompressToTwoWords) {
  const std::vector<std::uint32_t> zeros(5'000, 0u);
  const auto compressed = rle_compress(zeros);
  EXPECT_EQ(compressed.size(), 2u);
  expect_decodes_to(compressed, zeros);
}

TEST(RleTest, NoZerosPassThrough) {
  std::vector<std::uint32_t> words{1, 2, 3, 4, 5};
  EXPECT_EQ(rle_compress(words), words);
  expect_decodes_to(words, words);
}

TEST(RleTest, TruncatedStreamRejected) {
  for (const std::vector<std::uint32_t>& stream :
       {std::vector<std::uint32_t>{0u}, std::vector<std::uint32_t>{7u, 0u}}) {
    EXPECT_THROW(rle_decode(stream, 8), InvalidArgument);
    EXPECT_THROW(rle_check(stream, 8), InvalidArgument);
  }
}

TEST(RleTest, DecodeCrcMatchesReferenceOnEdgeStreams) {
  expect_decodes_to({}, {});
  expect_decodes_to({0u, 0u}, {});  // a zero-length run emits nothing
  expect_decodes_to({0xDEADBEEFu}, {0xDEADBEEFu});
  // Isolated literals between single zeros.
  const std::vector<std::uint32_t> isolated{0, 1, 0, 0xFFFFFFFFu, 0, 2, 0};
  expect_decodes_to(rle_compress(isolated), isolated);
  // Every run length sets a different mix of zero-table levels; each runs
  // alone and between two literals.
  for (const std::uint32_t run :
       {1u, 2u, 3u, 255u, 256u, 65'535u, 65'537u, (1u << 20) | 5u}) {
    std::vector<std::uint32_t> zeros(run, 0u);
    expect_decodes_to({0u, run}, zeros);
    zeros.insert(zeros.begin(), 0x12345678u);
    zeros.push_back(0x9ABCDEF0u);
    expect_decodes_to({0x12345678u, 0u, run, 0x9ABCDEF0u}, zeros);
  }
}

TEST(RleTest, DecodeCrcMatchesReferenceOnMixedStream) {
  // Bursts of literals between zero runs of random length up to 600.
  presp::Rng rng(0x524c45);
  std::vector<std::uint32_t> words;
  while (words.size() < 10'000) {
    for (std::uint64_t n = rng.next_below(9); n > 0; --n)
      words.push_back(static_cast<std::uint32_t>(rng.next_u64() | 1));
    words.insert(words.end(), rng.next_below(600), 0u);
  }
  words.resize(10'000);
  expect_decodes_to(rle_compress(words), words);
}

TEST(RleTest, OverflowingStreamsRejected) {
  const std::pair<std::vector<std::uint32_t>, std::uint64_t> overflowing[] = {
      // A run past the declared count, rejected before anything is
      // allocated.
      {{0u, 5u}, 4},
      {{1u, 0u, 0xFFFFFFFFu}, 1ull << 30},
      // A literal past it.
      {{1u, 2u, 3u}, 2},
      {{0u, 2u, 3u}, 2},
  };
  for (const auto& [stream, max_words] : overflowing) {
    EXPECT_THROW(rle_decode(stream, max_words), InvalidArgument);
    EXPECT_THROW(rle_check(stream, max_words), InvalidArgument);
  }
  // A stream short of the count decodes to what it holds; callers compare
  // the size with the count they declared.
  EXPECT_EQ(rle_decode({1u, 0u, 2u}, 10).words.size(), 3u);
  EXPECT_EQ(rle_check({1u, 0u, 2u}, 10).word_count, 3u);
}

/// Literal runs of every length from 1 to 17 (each slicing-by-8 pair
/// count with and without an odd tail), each between zero runs and at
/// either end of the stream.
std::vector<std::vector<std::uint32_t>> short_literal_run_payloads() {
  presp::Rng rng(0x52554e53);
  std::vector<std::vector<std::uint32_t>> payloads;
  const auto literals = [&](std::vector<std::uint32_t>& words, int n) {
    for (int i = 0; i < n; ++i)
      words.push_back(static_cast<std::uint32_t>(rng.next_u64() | 1));
  };
  std::vector<std::uint32_t> all_lengths;
  for (int n = 1; n <= 17; ++n) {
    std::vector<std::uint32_t> words;
    literals(words, n);  // a run at the start
    words.insert(words.end(), 1 + rng.next_below(40), 0u);
    literals(words, n);  // one between zero runs
    words.insert(words.end(), 1 + rng.next_below(40), 0u);
    literals(words, n);  // one at the end
    payloads.push_back(words);
    literals(all_lengths, n);
    all_lengths.insert(all_lengths.end(), 1 + rng.next_below(3), 0u);
  }
  payloads.push_back(all_lengths);
  return payloads;
}

TEST(RleTest, ShortLiteralRunsCheckToCrc32) {
  for (const std::vector<std::uint32_t>& words :
       short_literal_run_payloads()) {
    const RleCheck check = rle_check(rle_compress(words), words.size());
    EXPECT_EQ(check.word_count, words.size()) << words.size() << " words";
    EXPECT_EQ(check.crc, crc32(words)) << words.size() << " words";
    EXPECT_EQ(check.crc, reference_crc32(words)) << words.size() << " words";
  }
}

TEST(RleTest, LiteralRunCrossingTheDeclaredCountThrows) {
  // Three zeros, then eight literals: declaring 3 + k words for k < 8
  // ends the payload k literals into the run.
  const std::vector<std::uint32_t> stream{0u, 3u, 1u, 2u, 3u, 4u,
                                          5u, 6u, 7u, 8u};
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_THROW(rle_check(stream, 3 + k), InvalidArgument) << k;
    EXPECT_THROW(rle_decode(stream, 3 + k), InvalidArgument) << k;
  }
  EXPECT_EQ(rle_check(stream, 11).word_count, 11u);
  // A run crossing it after an earlier run that fit.
  EXPECT_THROW(rle_check({1u, 2u, 0u, 1u, 3u, 4u, 5u}, 5), InvalidArgument);
  EXPECT_EQ(rle_check({1u, 2u, 0u, 1u, 3u, 4u, 5u}, 6).word_count, 6u);
}

TEST(RleTest, ZeroRunsSplitAnywhereCheckToOneCrc) {
  // A run and the same zeros split into two runs advance the CRC through
  // different zero maps, up to the top nibble of a 32-bit length.
  for (const std::uint32_t run :
       {2u, 17u, 0x100u, 0x1001u, 0x10000u, 0x123456u, 0x10000000u,
        0x80000001u, 0xFFFFFFFFu}) {
    const RleCheck whole = rle_check({7u, 0u, run, 9u}, 1ull << 33);
    EXPECT_EQ(whole.word_count, 2ull + run);
    for (const std::uint32_t first : {1u, run / 2, run - 1, run / 16 + 3}) {
      if (first == 0 || first >= run) continue;
      EXPECT_EQ(
          rle_check({7u, 0u, first, 0u, run - first, 9u}, 1ull << 33).crc,
          whole.crc)
          << run << " split at " << first;
    }
  }
}

class BitstreamFixture : public ::testing::Test {
 protected:
  BitstreamFixture() : device_(fabric::Device::vc707()), gen_(device_) {}

  /// Builds a netlist + placement filling `pblock` to roughly `fill`.
  std::pair<netlist::Netlist, pnr::Placement> filled(
      const fabric::Pblock& pblock, double fill) {
    netlist::Netlist nl("fill");
    pnr::Placement placement;
    for (int col = pblock.col_lo; col <= pblock.col_hi; ++col) {
      for (int row = pblock.row_lo; row <= pblock.row_hi; ++row) {
        const auto cap = device_.cell_resources(col).luts;
        if (cap == 0) continue;
        const auto luts = static_cast<std::int64_t>(fill * cap);
        if (luts == 0) continue;
        const auto id = nl.add_cell({"c" + std::to_string(col) + "_" +
                                         std::to_string(row),
                                     netlist::CellKind::kLogic,
                                     {luts, luts, 0, 0},
                                     ""});
        placement.locations.resize(id + 1);
        placement.locations[id] = pnr::GridLoc{col, row};
      }
    }
    return {std::move(nl), std::move(placement)};
  }

  fabric::Device device_;
  BitstreamGenerator gen_;
};

TEST_F(BitstreamFixture, FullDeviceBitstreamMatchesVc707Size) {
  netlist::Netlist empty("e");
  pnr::Placement placement;
  const Bitstream bs = gen_.full("soc", empty, placement);
  // Real XC7VX485T full bitstream: ~19.3 MB.
  EXPECT_NEAR(static_cast<double>(bs.raw_bytes()), 19.3e6, 1.5e6);
  EXPECT_FALSE(bs.partial);
}

TEST_F(BitstreamFixture, PartialSizeTracksPblockFrames) {
  const fabric::Pblock small{2, 20, 0, 0};
  const fabric::Pblock large{2, 40, 0, 1};
  netlist::Netlist empty("e");
  pnr::Placement placement;
  const auto bs_small = gen_.partial("soc", "m", small, empty, placement);
  const auto bs_large = gen_.partial("soc", "m", large, empty, placement);
  EXPECT_GT(bs_large.raw_bytes(), 2 * bs_small.raw_bytes());
  EXPECT_EQ(bs_small.raw_bytes() - Bitstream::kHeaderBytes,
            static_cast<std::size_t>(fabric::pblock_frames(device_, small)) *
                static_cast<std::size_t>(device_.frames().frame_bytes));
}

TEST_F(BitstreamFixture, CompressionShrinksSparseContent) {
  const fabric::Pblock pblock{2, 60, 0, 1};
  auto [nl, placement] = filled(pblock, 0.75);
  const Bitstream bs = gen_.partial("soc", "m", pblock, nl, placement);
  EXPECT_LT(bs.compressed_bytes(), bs.raw_bytes() / 2);
  EXPECT_GT(bs.compressed_bytes(), Bitstream::kHeaderBytes);
}

TEST_F(BitstreamFixture, DenserPlacementCompressesWorse) {
  const fabric::Pblock pblock{2, 60, 0, 1};
  auto [nl_lo, pl_lo] = filled(pblock, 0.2);
  auto [nl_hi, pl_hi] = filled(pblock, 0.9);
  const auto lo = gen_.partial("s", "m", pblock, nl_lo, pl_lo);
  const auto hi = gen_.partial("s", "m", pblock, nl_hi, pl_hi);
  EXPECT_LT(lo.compressed_bytes(), hi.compressed_bytes());
}

TEST_F(BitstreamFixture, BlankBitstreamIsMostlyZero) {
  const fabric::Pblock pblock{2, 40, 0, 0};
  const Bitstream blank = gen_.blank("soc", pblock);
  EXPECT_LT(blank.compressed_bytes(), blank.raw_bytes() / 50);
  EXPECT_EQ(blank.module, "<blank>");
}

TEST_F(BitstreamFixture, CrcProtectsPayload) {
  const fabric::Pblock pblock{2, 30, 0, 0};
  auto [nl, placement] = filled(pblock, 0.5);
  Bitstream bs = gen_.partial("soc", "m", pblock, nl, placement);
  EXPECT_EQ(bs.crc, crc32(bs.words));
  bs.words[10] ^= 0x1;
  EXPECT_NE(bs.crc, crc32(bs.words));
}

TEST_F(BitstreamFixture, DeterministicContent) {
  const fabric::Pblock pblock{2, 30, 0, 0};
  auto [nl, placement] = filled(pblock, 0.5);
  const auto a = gen_.partial("soc", "m", pblock, nl, placement);
  const auto b = gen_.partial("soc", "m", pblock, nl, placement);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.crc, b.crc);
}

// Table VI sanity: a WAMI-sized tile (27k LUTs in a ~31k pblock) lands in
// the paper's 245-400 KB compressed range.
TEST_F(BitstreamFixture, WamiTileCompressedSizeInTable6Range) {
  // Find a pblock of ~80 columns x 1 row (~32k LUTs).
  const fabric::Pblock pblock{3, 95, 2, 2};
  auto [nl, placement] = filled(pblock, 0.85);
  const Bitstream bs = gen_.partial("soc", "warp", pblock, nl, placement);
  EXPECT_GT(bs.compressed_bytes(), 150'000u);
  EXPECT_LT(bs.compressed_bytes(), 650'000u);
}

// ---- the emitter against the word loop it replaced --------------------

/// The frame-word loop the generator ran before it emitted RLE directly:
/// every decoded word of `region`, cell by cell. `cell_starts` receives
/// the index of each cell's first word.
std::vector<std::uint32_t> reference_frame_words(
    const fabric::Device& device, const fabric::Pblock& region,
    const netlist::Netlist& nl, const pnr::Placement* placement,
    std::vector<std::size_t>& cell_starts) {
  const auto rows = static_cast<std::size_t>(device.region_rows());
  std::vector<std::int64_t> usage(
      static_cast<std::size_t>(device.num_columns()) * rows, 0);
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
  const int words_per_frame = device.frames().frame_bytes / 4;
  std::vector<std::uint32_t> words;
  for (int col = region.col_lo; col <= region.col_hi; ++col) {
    const int frames = device.frames().frames_for(device.column_type(col));
    const std::int64_t capacity =
        std::max<std::int64_t>(1, device.cell_resources(col).luts);
    for (int row = region.row_lo; row <= region.row_hi; ++row) {
      cell_starts.push_back(words.size());
      const std::int64_t used = usage[static_cast<std::size_t>(col) * rows +
                                      static_cast<std::size_t>(row)];
      const double fill = std::min(
          1.0, static_cast<double>(used) / static_cast<double>(capacity));
      const double density = placement == nullptr ? 0.0 : 0.28 * fill + 0.02;
      constexpr int kBurst = 8;
      presp::Rng rng(0x9E3779B9ull * static_cast<std::uint64_t>(col + 1) +
                     1000003ull * static_cast<std::uint64_t>(row + 1));
      int burst_left = 0;
      for (int f = 0; f < frames; ++f) {
        for (int w = 0; w < words_per_frame; ++w) {
          if (burst_left == 0 && rng.next_double() < density / kBurst)
            burst_left = kBurst;
          if (burst_left > 0) {
            --burst_left;
            words.push_back(static_cast<std::uint32_t>(rng.next_u64() | 1u));
          } else {
            words.push_back(0u);
          }
        }
      }
    }
  }
  return words;
}

/// True when a zero run of `words` covers both sides of `boundary`.
bool zero_run_spans(const std::vector<std::uint32_t>& words,
                    std::size_t boundary) {
  return boundary > 0 && boundary < words.size() &&
         words[boundary - 1] == 0 && words[boundary] == 0;
}

/// The stream-only and the decoded bitstream both match `ref`.
void expect_emits(const Bitstream& stream, const Bitstream& decoded,
                  const std::vector<std::uint32_t>& ref,
                  const std::string& what) {
  EXPECT_EQ(stream.rle, rle_compress(ref)) << what;
  EXPECT_EQ(stream.word_count, ref.size()) << what;
  EXPECT_EQ(stream.crc, crc32(ref)) << what;
  EXPECT_TRUE(stream.words.empty()) << what;
  EXPECT_EQ(decoded.rle, stream.rle) << what;
  EXPECT_EQ(decoded.crc, stream.crc) << what;
  EXPECT_EQ(decoded.words, ref) << what;
}

TEST(EmitterTest, StreamEqualsCompressedReferenceOnRandomPlacements) {
  const fabric::Device device = fabric::Device::vc707();
  const BitstreamGenerator gen(device);
  presp::Rng rng(0x454d4954);
  int cell_spanning_runs = 0;
  int frame_spanning_runs = 0;
  constexpr int kCases = 60;
  for (int i = 0; i < kCases; ++i) {
    const auto below = [&](int n) {
      return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    };
    const int cols = device.num_columns();
    const int rows = device.region_rows();
    // Up to 12 columns by up to 2 clock-region rows.
    fabric::Pblock pb;
    pb.col_lo = below(cols);
    pb.col_hi = pb.col_lo + below(std::min(12, cols - pb.col_lo));
    pb.row_lo = below(rows);
    pb.row_hi = pb.row_lo + below(std::min(2, rows - pb.row_lo));
    // Logic cells of random size, some placed outside the pblock, some
    // not placed at all, and one non-logic cell on a placed site.
    netlist::Netlist nl("rand");
    pnr::Placement placement;
    const std::uint64_t cells = rng.next_below(40);
    for (std::uint64_t c = 0; c < cells; ++c) {
      const bool port = c == 0;
      const auto luts =
          port ? 0 : static_cast<std::int64_t>(rng.next_below(3000));
      const auto id = nl.add_cell(
          {"c" + std::to_string(c),
           port ? netlist::CellKind::kPort : netlist::CellKind::kLogic,
           {luts, luts, 0, 0},
           ""});
      placement.locations.resize(id + 1);
      if (rng.next_bool(0.1)) continue;  // left unplaced
      placement.locations[id] = pnr::GridLoc{below(cols), below(rows)};
    }

    std::vector<std::size_t> cell_starts;
    const std::vector<std::uint32_t> ref =
        reference_frame_words(device, pb, nl, &placement, cell_starts);
    const std::string what = "case " + std::to_string(i) + " " + pb.to_string();
    expect_emits(gen.partial_stream("soc", "m", pb, nl, placement),
                 gen.partial("soc", "m", pb, nl, placement), ref, what);
    for (const std::size_t start : cell_starts)
      if (zero_run_spans(ref, start)) ++cell_spanning_runs;
    const std::size_t words_per_frame =
        static_cast<std::size_t>(device.frames().frame_bytes / 4);
    for (std::size_t at = words_per_frame; at < ref.size();
         at += words_per_frame)
      if (zero_run_spans(ref, at)) ++frame_spanning_runs;
  }
  // The pending run crossed cell and frame boundaries, not only ran
  // inside one frame.
  EXPECT_GT(cell_spanning_runs, kCases);
  EXPECT_GT(frame_spanning_runs, kCases);
}

TEST(EmitterTest, ShortLiteralRunsEmitTheCompressedStreamAndCrc32) {
  for (const std::vector<std::uint32_t>& words :
       short_literal_run_payloads()) {
    std::vector<std::uint32_t> stream;
    RleEmitter out(stream);
    for (const std::uint32_t w : words) {
      if (w != 0)
        out.literal(w);
      else
        out.zero();
    }
    const RleCheck sums = out.finish();
    EXPECT_EQ(stream, rle_compress(words)) << words.size() << " words";
    EXPECT_EQ(sums.word_count, words.size()) << words.size() << " words";
    EXPECT_EQ(sums.crc, crc32(words)) << words.size() << " words";
  }
}

TEST(EmitterTest, BlankIsOneZeroRun) {
  const fabric::Device device = fabric::Device::vc707();
  const BitstreamGenerator gen(device);
  const fabric::Pblock pb{2, 40, 0, 1};
  netlist::Netlist empty("blank");
  std::vector<std::size_t> cell_starts;
  const std::vector<std::uint32_t> ref =
      reference_frame_words(device, pb, empty, nullptr, cell_starts);
  const Bitstream blank = gen.blank("soc", pb);
  // A run spanning every cell and frame of the pblock.
  EXPECT_EQ(blank.rle,
            (std::vector<std::uint32_t>{0u, static_cast<std::uint32_t>(
                                                ref.size())}));
  EXPECT_EQ(blank.rle, rle_compress(ref));
  EXPECT_EQ(blank.word_count, ref.size());
  EXPECT_EQ(blank.crc, crc32(ref));
  EXPECT_EQ(blank.words, ref);
}

}  // namespace
}  // namespace presp::bitstream
