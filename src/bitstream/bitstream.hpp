// Configuration bitstream generation.
//
// Frames are the atomic configuration unit: one frame configures a slice
// of one (column x clock-region) cell. A full bitstream writes every frame
// on the device; a partial bitstream writes exactly the frames of one
// pblock. Frame payloads are synthesized deterministically from the
// placement density inside each cell (a cell packed with logic yields
// dense configuration words; empty fabric yields zero frames), which gives
// Vivado-compression-mode-like compressed sizes: the paper's Table VI
// reports 245-400 KB compressed partial bitstreams for WAMI-scale tiles,
// and the model lands in the same range (see tests and bench_table6).
//
// Sanity anchor: the full-device VC707 bitstream computes to ~19.5 MB,
// matching the real XC7VX485T (~19.3 MB).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/device.hpp"
#include "pnr/placement.hpp"

namespace presp::bitstream {

/// CRC-32 (IEEE 802.3, reflected) over a word stream, each word fed low
/// byte first; the configuration engine verifies it before activating a
/// partial bitstream. Slicing-by-8 (two words per step, a one-word step for
/// an odd last word); bytes are taken from each word by shifts, so the value
/// is the same on any host endianness.
std::uint32_t crc32(const std::vector<std::uint32_t>& words);

/// Zero-run RLE: literal non-zero words pass through; a run of zero words
/// is encoded as {0, run_length}, a run longer than 0xFFFFFFFF as several
/// such pairs. Models Vivado's bitstream compression (multi-frame-write of
/// identical frames). The generator emits this stream directly (see
/// BitstreamGenerator); rle_compress is the reference it must equal, for
/// callers that hold decoded words.
std::vector<std::uint32_t> rle_compress(
    const std::vector<std::uint32_t>& words);

/// What an RLE stream decodes to, learned without decoding it.
struct RleCheck {
  std::uint64_t word_count = 0;  // words the stream decodes to
  std::uint32_t crc = 0;         // crc32 of those words
};

/// The one RLE verifier: one pass over the stream, no allocation.
/// `max_words` is the payload's declared word count: a run or literal past
/// it throws InvalidArgument, as does a zero marker without a run length;
/// callers compare the returned count with the count they declared. Each
/// run of consecutive literals is bounds-checked once and CRCed in one
/// slicing-by-8 pass (two words per step); each zero run goes through
/// zero maps (one per nibble of the run length, each advancing the CRC
/// over that many zero words), so the zeros are never touched.
RleCheck rle_check(const std::vector<std::uint32_t>& stream,
                   std::uint64_t max_words);

/// Writes an RLE stream word by word, with its word count and CRC: the
/// generator's emitter. A literal (non-zero) goes straight onto the
/// stream; the run of literals at the stream's end is CRCed in one pass
/// when it closes. A zero only lengthens a pending run, written (in
/// pieces of at most 0xFFFFFFFF, as rle_compress splits it) when the next
/// literal or the end arrives.
class RleEmitter {
 public:
  explicit RleEmitter(std::vector<std::uint32_t>& stream) : stream_(stream) {}

  void literal(std::uint32_t word) {
    if (pending_ != 0) flush_zeros();
    stream_.push_back(word);
    ++open_;
  }
  void zero() {
    if (open_ != 0) close_literals();
    ++pending_;
  }

  /// Closes the open run and returns {word count, CRC}.
  RleCheck finish();

 private:
  void close_literals();
  void flush_zeros();

  std::vector<std::uint32_t>& stream_;
  std::uint64_t words_ = 0;
  std::uint64_t open_ = 0;     // literals at the stream's end, not yet CRCed
  std::uint64_t pending_ = 0;  // zeros not yet written
  std::uint32_t crc_ = 0xFFFFFFFFu;
};

/// An RLE stream decoded by rle_decode.
struct RleDecoded {
  std::vector<std::uint32_t> words;
  std::uint32_t crc = 0;  // crc32(words)
};

/// rle_check, then one allocation of the words it counted and a fill.
/// Throws what rle_check throws, before anything is allocated.
RleDecoded rle_decode(const std::vector<std::uint32_t>& compressed,
                      std::uint64_t max_words);

/// A bitstream is its RLE stream: `rle`, `word_count` and `crc` are the
/// artifact (what a `.pbs` file and a flow-cache entry store), and every
/// size is read from them. `words` is a decoded view of the same payload,
/// filled only by the entry points that decode: the generator's
/// full/partial/blank, read_bitstream and FlowCache::load_module. The flow
/// itself never decodes (BitstreamGenerator::partial_stream,
/// FlowCache::load_module_stream).
struct Bitstream {
  /// Identifies what the bitstream configures.
  std::string design;
  std::string module;       // partial: module loaded; full: empty
  fabric::Pblock pblock;    // partial only; full: whole device
  bool partial = false;

  std::vector<std::uint32_t> rle;  // RLE-compressed frame payload
  std::uint64_t word_count = 0;    // uncompressed payload words
  std::uint32_t crc = 0;           // crc32 of the uncompressed payload
  std::vector<std::uint32_t> words;  // decoded view; empty unless decoded

  std::size_t raw_bytes() const {
    return static_cast<std::size_t>(word_count) * 4 + kHeaderBytes;
  }
  /// Compressed transport size (what lands in DDR and flows through the
  /// ICAP when compression is enabled).
  std::size_t compressed_bytes() const {
    return rle.size() * 4 + kHeaderBytes;
  }

  static constexpr std::size_t kHeaderBytes = 128;  // sync + IDCODE + cmds
};

/// Generates bitstreams by one emitter: it walks the region's frames cell
/// by cell and writes the RLE stream, the word count and the CRC as it
/// goes, never holding the decoded words. The entry points that return a
/// Bitstream with `words` decode that stream afterwards.
class BitstreamGenerator {
 public:
  explicit BitstreamGenerator(const fabric::Device& device)
      : device_(device) {}

  /// Full-device bitstream for a flat implementation, decoded.
  Bitstream full(const std::string& design, const netlist::Netlist& nl,
                 const pnr::Placement& placement) const;

  /// `full(...).raw_bytes()` in closed form: the size depends only on the
  /// device's frame count, never on the netlist or placement.
  std::size_t full_raw_bytes() const;

  /// Partial bitstream: the frames of `pblock`, with content derived from
  /// the partition run's placement. Decoded: partial_stream plus `words`.
  Bitstream partial(const std::string& design, const std::string& module,
                    const fabric::Pblock& pblock, const netlist::Netlist& nl,
                    const pnr::Placement& placement) const;

  /// The same partial bitstream as its stream alone (`words` stays
  /// empty): what the flow writes, caches and reports sizes from.
  Bitstream partial_stream(const std::string& design,
                           const std::string& module,
                           const fabric::Pblock& pblock,
                           const netlist::Netlist& nl,
                           const pnr::Placement& placement) const;

  /// A blanking bitstream for a pblock (all-zero frames): used to erase a
  /// partition before handoff, and as the placeholder "empty module".
  /// Decoded.
  Bitstream blank(const std::string& design,
                  const fabric::Pblock& pblock) const;

 private:
  fabric::Pblock whole_device() const;
  /// Fills `bs.rle`, `bs.word_count` and `bs.crc` with `region`'s frames;
  /// `placement == nullptr` emits all-zero frames.
  void emit(Bitstream& bs, const fabric::Pblock& region,
            const netlist::Netlist& nl,
            const pnr::Placement* placement) const;

  const fabric::Device& device_;
};

}  // namespace presp::bitstream
