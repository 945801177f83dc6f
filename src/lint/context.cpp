#include "lint/context.hpp"

#include <fstream>
#include <sstream>

#include "hls/library.hpp"
#include "hls/spec_io.hpp"
#include "noc/noc.hpp"
#include "util/string_utils.hpp"
#include "wami/accelerators.hpp"

namespace presp::lint {

const std::vector<int>& RouteTable::route(int src, int dst) const {
  PRESP_REQUIRE(src >= 0 && src < num_tiles() && dst >= 0 &&
                    dst < num_tiles(),
                "route endpoints out of range");
  return routes[static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(num_tiles()) +
                static_cast<std::size_t>(dst)];
}

LintContext::LintContext(std::string config_text, std::string file)
    : text_(std::move(config_text)), file_(std::move(file)) {}

LintContext LintContext::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw InvalidArgument("cannot read configuration '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return LintContext(text.str(), path);
}

const Config& LintContext::raw() {
  if (!raw_) {
    try {
      raw_ = Config::parse(text_);
    } catch (const Error& e) {
      throw ArtifactError("config.parse", e.what());
    }
  }
  return *raw_;
}

const netlist::SocConfig& LintContext::soc() {
  if (!soc_) {
    const Config& cfg = raw();
    try {
      soc_ = netlist::SocConfig::from_config(cfg);
    } catch (const Error& e) {
      throw ArtifactError("config.parse", e.what());
    }
  }
  return *soc_;
}

const netlist::ComponentLibrary& LintContext::library() {
  if (!library_) {
    const Config& cfg = raw();
    try {
      auto lib = netlist::ComponentLibrary::with_builtins();
      hls::register_characterization_kernels(lib);
      wami::register_wami_kernels(lib);
      hls::register_kernels_from_config(cfg, lib);
      library_ = std::move(lib);
    } catch (const Error& e) {
      throw ArtifactError("config.parse", e.what());
    }
  }
  return *library_;
}

const fabric::Device& LintContext::device() {
  if (!device_) {
    const std::string& name = soc().device;
    if (name == "vc707") device_ = fabric::Device::vc707();
    else if (name == "vcu118") device_ = fabric::Device::vcu118();
    else if (name == "vcu128") device_ = fabric::Device::vcu128();
    else
      throw ArtifactError("config.unknown-device",
                          "unknown device '" + name +
                              "' (expected vc707|vcu118|vcu128)");
  }
  return *device_;
}

const netlist::SocRtl& LintContext::rtl() {
  if (!rtl_) {
    try {
      rtl_ = netlist::elaborate(soc(), library());
    } catch (const ArtifactError&) {
      throw;
    } catch (const Error& e) {
      throw ArtifactError("netlist.unknown-accelerator", e.what());
    }
  }
  return *rtl_;
}

const synth::Checkpoint& LintContext::static_netlist() {
  if (!static_netlist_) {
    try {
      static_netlist_ =
          synth::Synthesizer(library(), synth::SynthOptions{})
              .synthesize_static(rtl());
    } catch (const ArtifactError&) {
      throw;
    } catch (const Error& e) {
      throw ArtifactError("config.parse", e.what());
    }
  }
  return *static_netlist_;
}

const floorplan::Floorplan& LintContext::floorplan() {
  if (!floorplan_) {
    const netlist::SocRtl& soc_rtl = rtl();
    const synth::Checkpoint& static_ckpt = static_netlist();
    try {
      std::vector<floorplan::PartitionRequest> requests;
      for (int p = 0; p < static_cast<int>(soc_rtl.partitions().size());
           ++p)
        requests.push_back({soc_rtl.partitions()[static_cast<std::size_t>(p)]
                                .name,
                            soc_rtl.partition_demand(library(), p)});
      floorplan::FloorplanOptions options;
      options.refine = false;  // lint needs legality, not minimal waste
      floorplan_ = floorplan::Floorplanner(device()).plan(
          requests, static_ckpt.utilization, options);
      requests_ = std::move(requests);
    } catch (const ArtifactError&) {
      throw;
    } catch (const Error& e) {
      throw ArtifactError("floorplan.infeasible", e.what());
    }
  }
  return *floorplan_;
}

const std::vector<floorplan::PartitionRequest>&
LintContext::partition_requests() {
  floorplan();
  return *requests_;
}

const RouteTable& LintContext::routes() {
  if (!routes_) {
    const netlist::SocConfig& config = soc();
    RouteTable table;
    table.rows = config.rows;
    table.cols = config.cols;
    const int tiles = table.num_tiles();
    table.routes.reserve(static_cast<std::size_t>(tiles) *
                         static_cast<std::size_t>(tiles));
    for (int src = 0; src < tiles; ++src)
      for (int dst = 0; dst < tiles; ++dst)
        table.routes.push_back(
            noc::xy_route(table.rows, table.cols, src, dst));
    routes_ = std::move(table);
  }
  return *routes_;
}

// -------------------------------------------------- fixture injection

void LintContext::override_netlist(netlist::Netlist nl) {
  synth::Checkpoint ckpt;
  ckpt.name = nl.name();
  ckpt.utilization = nl.total_resources();
  ckpt.netlist = std::move(nl);
  static_netlist_ = std::move(ckpt);
}

void LintContext::override_floorplan(
    floorplan::Floorplan plan,
    std::vector<floorplan::PartitionRequest> requests) {
  floorplan_ = std::move(plan);
  requests_ = std::move(requests);
}

void LintContext::override_routes(RouteTable routes) {
  routes_ = std::move(routes);
}

void LintContext::override_rtl(netlist::SocRtl rtl) {
  rtl_ = std::move(rtl);
}

// --------------------------------------------------- source locations

int LintContext::line_of(const std::string& section,
                         const std::string& key) const {
  std::istringstream is(text_);
  std::string raw_line;
  std::string current;
  int line_no = 0;
  while (std::getline(is, raw_line)) {
    ++line_no;
    std::string_view line = trim(raw_line);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;
    if (line.front() == '[' && line.back() == ']') {
      current = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) continue;
    if (current == section &&
        std::string(trim(line.substr(0, eq))) == key)
      return line_no;
  }
  return 0;
}

std::vector<std::pair<std::string, int>> LintContext::section_headers()
    const {
  std::vector<std::pair<std::string, int>> headers;
  std::istringstream is(text_);
  std::string raw_line;
  int line_no = 0;
  while (std::getline(is, raw_line)) {
    ++line_no;
    std::string_view line = trim(raw_line);
    if (line.size() >= 2 && line.front() == '[' && line.back() == ']')
      headers.emplace_back(trim(line.substr(1, line.size() - 2)), line_no);
  }
  return headers;
}

int LintContext::line_of_section(const std::string& section) const {
  for (const auto& [name, line] : section_headers())
    if (name == section) return line;
  return 0;
}

}  // namespace presp::lint
