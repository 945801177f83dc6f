#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "bitstream/artifact_io.hpp"

namespace perfbench {

void Report::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

void Report::set_best(const std::string& name, const PartSamples& parts,
                      double scale) {
  samples_[name] = parts;
  double total = 0.0;
  for (const auto& [part, values] : parts)
    if (!values.empty())
      total += *std::min_element(values.begin(), values.end());
  set(name, scale * total);
}

bool Report::check(bool ok, const std::string& why) {
  if (!ok) fail(why);
  return ok;
}

double Spans::ms(const std::string& name) const {
  const auto it = ms_.find(name);
  return it == ms_.end() ? 0.0 : it->second;
}

double Spans::total_ms() const {
  double total = 0.0;
  for (const auto& [name, ms] : ms_) total += ms;
  return total;
}

bool out_of_time(Clock::time_point start, const Options& options, int done) {
  if (done == 0) return false;
  if (options.tiny) return true;
  return ms_since(start) / 1e3 >= options.seconds;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::uint64_t hash_words(const std::vector<std::uint32_t>& words) {
  return presp::bitstream::fnv1a64(words.data(),
                                   words.size() * sizeof(std::uint32_t));
}

std::uint64_t digest(const BuildRecord& r) {
  std::uint64_t h = presp::bitstream::fnv1a64(r.design);
  h = mix(h, presp::bitstream::fnv1a64(r.strategy));
  h = mix(h, static_cast<std::uint64_t>(r.tau));
  for (const auto& [name, pb] : r.pblocks) {
    h = mix(h, presp::bitstream::fnv1a64(name));
    for (const int v : {pb.col_lo, pb.col_hi, pb.row_lo, pb.row_hi})
      h = mix(h, static_cast<std::uint64_t>(v));
  }
  for (const PartialRecord& p : r.partials) {
    h = mix(h, presp::bitstream::fnv1a64(p.partition + "/" + p.module));
    h = mix(h, p.crc);
    h = mix(h, p.word_hash);
    h = mix(h, p.raw_bytes);
    h = mix(h, p.compressed_bytes);
    h = mix(h, p.routed ? 1u : 0u);
  }
  h = mix(h, r.full_bitstream_bytes);
  h = mix(h, bits_of(r.fmax_mhz));
  h = mix(h, bits_of(r.total_minutes));
  h = mix(h, r.physical_ok ? 1u : 0u);
  return h;
}

BuildRecord record_of(const presp::core::FlowResult& result,
                      const std::string& artifacts_dir) {
  BuildRecord record;
  record.design = result.design;
  record.strategy = presp::core::to_string(result.decision.strategy);
  record.tau = result.decision.tau;
  record.pblocks = result.pblocks;
  for (const presp::core::ModuleImplementation& m : result.modules) {
    const presp::bitstream::Bitstream pbs = presp::bitstream::read_bitstream(
        artifacts_dir + "/" +
        presp::bitstream::pbs_filename(result.design, m.partition, m.module));
    PartialRecord p;
    p.partition = m.partition;
    p.module = m.module;
    p.crc = pbs.crc;
    p.word_hash = hash_words(pbs.words);
    p.raw_bytes = m.pbs_raw_bytes;
    p.compressed_bytes = m.pbs_compressed_bytes;
    p.routed = m.routed;
    record.partials.push_back(std::move(p));
  }
  record.full_bitstream_bytes = result.full_bitstream_bytes;
  record.fmax_mhz = result.achieved_fmax_mhz;
  record.total_minutes = result.total_minutes;
  record.physical_ok = result.physical_ok;
  return record;
}

}  // namespace perfbench
