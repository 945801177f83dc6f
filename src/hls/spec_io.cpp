#include "hls/spec_io.hpp"

#include <cstring>

#include "hls/estimator.hpp"
#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace presp::hls {

OpKind op_kind_from_string(const std::string& name) {
  static const std::pair<const char*, OpKind> kTable[] = {
      {"add16", OpKind::kAdd16},   {"add32", OpKind::kAdd32},
      {"mul16", OpKind::kMul16},   {"mul32", OpKind::kMul32},
      {"mac16", OpKind::kMac16},   {"mac32", OpKind::kMac32},
      {"div32", OpKind::kDiv32},   {"sqrt32", OpKind::kSqrt32},
      {"cmp", OpKind::kCmp},       {"shift", OpKind::kShift},
      {"fadd", OpKind::kFAdd},     {"fmul", OpKind::kFMul},
      {"fmac", OpKind::kFMac},     {"fdiv", OpKind::kFDiv},
      {"fsqrt", OpKind::kFSqrt},   {"lut_func", OpKind::kLutFunc},
  };
  const std::string lowered = to_lower(name);
  for (const auto& [text, kind] : kTable)
    if (lowered == text) return kind;
  throw ConfigError("unknown operator '" + name + "'");
}

OpCount parse_op(const std::string& token) {
  const auto trimmed = std::string(trim(token));
  PRESP_REQUIRE(!trimmed.empty(), "empty operator token");
  const std::size_t colon = trimmed.find(':');
  OpCount op;
  if (colon == std::string::npos) {
    op.kind = op_kind_from_string(trimmed);
    op.count = 1;
  } else {
    op.kind = op_kind_from_string(trimmed.substr(0, colon));
    op.count = static_cast<int>(parse_int(trimmed.substr(colon + 1)));
    if (op.count < 1)
      throw ConfigError("operator count must be positive in '" + token +
                        "'");
  }
  return op;
}

namespace {
constexpr const char* kSectionPrefix = "accelerator ";
}  // namespace

KernelSpec kernel_spec_from_config(const Config& cfg,
                                   const std::string& section_name) {
  PRESP_REQUIRE(starts_with(section_name, kSectionPrefix),
                "not an accelerator section: [" + section_name + "]");
  KernelSpec spec;
  spec.name = std::string(trim(
      std::string_view(section_name).substr(strlen(kSectionPrefix))));
  if (spec.name.empty())
    throw ConfigError("accelerator section without a name");

  const std::string flow = to_lower(cfg.get_or(section_name, "flow",
                                               "stratus_hls"));
  if (flow == "vivado_hls") {
    spec.flow = HlsFlow::kVivadoHls;
  } else if (flow == "stratus_hls" || flow == "stratus") {
    spec.flow = HlsFlow::kStratusHls;
  } else {
    throw ConfigError("unknown HLS flow '" + flow + "'");
  }

  for (const std::string& token : split(cfg.get(section_name, "ops"), ','))
    if (!trim(token).empty()) spec.pe_ops.push_back(parse_op(token));
  if (spec.pe_ops.empty())
    throw ConfigError("accelerator '" + spec.name + "' lists no ops");

  spec.num_pes = cfg.get_int32(section_name, "pes");
  spec.address_generators =
      cfg.get_int32(section_name, "address_generators", 1);
  spec.fsm_states = cfg.get_int32(section_name, "fsm_states", 8);
  spec.buffer_luts = cfg.get_int32(section_name, "buffer_luts", 0);
  // An int count of KB times 1024 always fits in long long.
  spec.scratchpad_bytes =
      cfg.get_int32(section_name, "scratchpad_kb", 0) * 1024LL;
  spec.pipeline_ii = cfg.get_int32(section_name, "pipeline_ii", 1);
  spec.pipeline_depth = cfg.get_int32(section_name, "pipeline_depth", 8);
  if (cfg.has(section_name, "words_in_per_item"))
    spec.words_in_per_item =
        cfg.get_double(section_name, "words_in_per_item");
  if (cfg.has(section_name, "words_out_per_item"))
    spec.words_out_per_item =
        cfg.get_double(section_name, "words_out_per_item");
  return spec;
}

std::vector<KernelSpec> register_kernels_from_config(
    const Config& cfg, netlist::ComponentLibrary& lib) {
  std::vector<KernelSpec> specs;
  for (const std::string& section : cfg.sections()) {
    if (!starts_with(section, kSectionPrefix)) continue;
    KernelSpec spec = kernel_spec_from_config(cfg, section);
    register_kernel(lib, spec);
    specs.push_back(std::move(spec));
  }
  return specs;
}

void kernel_spec_to_config(const KernelSpec& spec, Config& cfg) {
  const std::string section = std::string(kSectionPrefix) + spec.name;
  cfg.set(section, "flow",
          spec.flow == HlsFlow::kVivadoHls ? "vivado_hls" : "stratus_hls");
  std::vector<std::string> ops;
  for (const OpCount& op : spec.pe_ops)
    ops.push_back(std::string(to_string(op.kind)) + ":" +
                  std::to_string(op.count));
  cfg.set(section, "ops", join(ops, ", "));
  cfg.set(section, "pes", std::to_string(spec.num_pes));
  cfg.set(section, "address_generators",
          std::to_string(spec.address_generators));
  cfg.set(section, "fsm_states", std::to_string(spec.fsm_states));
  cfg.set(section, "buffer_luts", std::to_string(spec.buffer_luts));
  cfg.set(section, "scratchpad_kb",
          std::to_string(spec.scratchpad_bytes / 1024));
  cfg.set(section, "pipeline_ii", std::to_string(spec.pipeline_ii));
  cfg.set(section, "pipeline_depth", std::to_string(spec.pipeline_depth));
  cfg.set(section, "words_in_per_item",
          std::to_string(spec.words_in_per_item));
  cfg.set(section, "words_out_per_item",
          std::to_string(spec.words_out_per_item));
}

}  // namespace presp::hls
