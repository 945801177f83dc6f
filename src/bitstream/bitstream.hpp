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
/// partial bitstream. Slicing-by-8 (two words per step, bytewise for an
/// odd last word); bytes are taken from each word by shifts, so the value
/// is the same on any host endianness.
std::uint32_t crc32(const std::vector<std::uint32_t>& words);

/// Zero-run RLE: literal non-zero words pass through; a zero word is
/// encoded as {0, run_length}. Models Vivado's bitstream compression
/// (multi-frame-write of identical frames). A build compresses each
/// partial once and hands the stream to every consumer (its compressed
/// size, the `.pbs` artifact, the flow cache entry).
std::vector<std::uint32_t> rle_compress(
    const std::vector<std::uint32_t>& words);

/// An RLE stream decoded by rle_decode.
struct RleDecoded {
  std::vector<std::uint32_t> words;
  std::uint32_t crc = 0;  // crc32(words), computed in the decoding pass
};

/// The one RLE decoder. `max_words` is the payload's declared word count:
/// a run or literal past it throws InvalidArgument, as does a zero marker
/// without a run length. The markers are checked before anything is
/// allocated, so a corrupted run length fails cleanly instead of exploding
/// the allocation; the output is then allocated once, at the size the
/// stream decodes to, which callers compare with the declared count.
/// The CRC is computed in the same pass: each literal through a one-word
/// slicing step, each zero run through zero-advance tables (one per power
/// of two of zero words, applied once per set bit of the run length).
RleDecoded rle_decode(const std::vector<std::uint32_t>& compressed,
                      std::uint64_t max_words);

struct Bitstream {
  /// Identifies what the bitstream configures.
  std::string design;
  std::string module;       // partial: module loaded; full: empty
  fabric::Pblock pblock;    // partial only; full: whole device
  bool partial = false;

  std::vector<std::uint32_t> words;  // uncompressed frame payload
  std::uint32_t crc = 0;

  std::size_t raw_bytes() const { return words.size() * 4 + kHeaderBytes; }
  /// Compressed transport size (what lands in DDR and flows through the
  /// ICAP when compression is enabled).
  std::size_t compressed_bytes() const;
  /// The same size given the words' RLE stream, without re-compressing.
  static std::size_t compressed_bytes(const std::vector<std::uint32_t>& rle) {
    return rle.size() * 4 + kHeaderBytes;
  }

  static constexpr std::size_t kHeaderBytes = 128;  // sync + IDCODE + cmds
};

class BitstreamGenerator {
 public:
  explicit BitstreamGenerator(const fabric::Device& device)
      : device_(device) {}

  /// Full-device bitstream for a flat implementation.
  Bitstream full(const std::string& design, const netlist::Netlist& nl,
                 const pnr::Placement& placement) const;

  /// `full(...).raw_bytes()` in closed form: the size depends only on the
  /// device's frame count, never on the netlist or placement.
  std::size_t full_raw_bytes() const;

  /// Partial bitstream: the frames of `pblock`, with content derived from
  /// the partition run's placement.
  Bitstream partial(const std::string& design, const std::string& module,
                    const fabric::Pblock& pblock, const netlist::Netlist& nl,
                    const pnr::Placement& placement) const;

  /// A blanking bitstream for a pblock (all-zero frames): used to erase a
  /// partition before handoff, and as the placeholder "empty module".
  Bitstream blank(const std::string& design,
                  const fabric::Pblock& pblock) const;

 private:
  fabric::Pblock whole_device() const;
  std::vector<std::uint32_t> frame_words(
      const fabric::Pblock& region, const netlist::Netlist& nl,
      const pnr::Placement* placement) const;

  const fabric::Device& device_;
};

}  // namespace presp::bitstream
