// Lazily-materialized artifact context for the cross-layer lint rules.
//
// A LintContext wraps one SoC configuration text and produces, on first
// request, every artifact a rule may need: the parsed Config and
// SocConfig, the component library (builtins + characterization + WAMI +
// custom [accelerator] sections), the elaborated RTL hierarchy, the
// synthesized static netlist, the DPR floorplan and the NoC route
// tables. Artifacts are cached; materialization failures throw
// ArtifactError carrying the rule id the failure reports under, so the
// rule runner can convert them into diagnostics exactly once.
//
// Tests inject seeded-violation fixtures through the override_* setters,
// which bypass derivation for a single artifact while the rest of the
// pipeline still materializes normally.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fabric/device.hpp"
#include "floorplan/floorplanner.hpp"
#include "netlist/components.hpp"
#include "netlist/rtl.hpp"
#include "netlist/soc_config.hpp"
#include "synth/synthesis.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace presp::lint {

/// Artifact materialization failure; reported under rule id `rule()`.
class ArtifactError : public Error {
 public:
  ArtifactError(std::string rule, const std::string& what)
      : Error(what), rule_(std::move(rule)) {}
  const std::string& rule() const { return rule_; }

 private:
  std::string rule_;
};

// ------------------------------------------------------- NoC artifact

/// All-pairs route table over the SoC mesh (the static NoC routing
/// function, materialized so deadlock analysis can walk every path).
struct RouteTable {
  int rows = 0;
  int cols = 0;
  /// routes[src * rows*cols + dst]; each is inclusive of both endpoints.
  std::vector<std::vector<int>> routes;

  int num_tiles() const { return rows * cols; }
  const std::vector<int>& route(int src, int dst) const;
};

// ----------------------------------------------------------- context

class LintContext {
 public:
  /// `file` names the source in diagnostics ("<memory>" for tests).
  explicit LintContext(std::string config_text,
                       std::string file = "<memory>");

  /// Reads the file and constructs a context for it. Throws
  /// InvalidArgument when the file cannot be read.
  static LintContext from_file(const std::string& path);

  const std::string& file() const { return file_; }
  const std::string& text() const { return text_; }

  // Artifact accessors; each throws ArtifactError on failure.
  const Config& raw();                        // config.parse
  const netlist::SocConfig& soc();            // config.parse
  const netlist::ComponentLibrary& library(); // config.parse
  const fabric::Device& device();             // config.unknown-device
  const netlist::SocRtl& rtl();               // netlist.unknown-accelerator
  const synth::Checkpoint& static_netlist();  // config.parse
  const floorplan::Floorplan& floorplan();    // floorplan.infeasible
  /// Partition sizing requests the floorplan was planned for (same
  /// order as floorplan().pblocks).
  const std::vector<floorplan::PartitionRequest>& partition_requests();
  const RouteTable& routes();                 // config.parse

  // Fixture injection (tests): replaces one artifact.
  void override_netlist(netlist::Netlist nl);
  void override_floorplan(floorplan::Floorplan plan,
                          std::vector<floorplan::PartitionRequest> requests);
  void override_routes(RouteTable routes);
  void override_rtl(netlist::SocRtl rtl);

  /// 1-based config line of `key` in `[section]` (0 if not found);
  /// anchors diagnostics into the source text.
  int line_of(const std::string& section, const std::string& key) const;
  /// Every [section] header with its 1-based line, in source order.
  /// Unlike raw().sections(), this also lists headers with no keys.
  std::vector<std::pair<std::string, int>> section_headers() const;
  /// 1-based line of the first [section] header (0 if not found).
  int line_of_section(const std::string& section) const;

 private:
  std::string text_;
  std::string file_;

  std::optional<Config> raw_;
  std::optional<netlist::SocConfig> soc_;
  std::optional<netlist::ComponentLibrary> library_;
  std::optional<fabric::Device> device_;
  std::optional<netlist::SocRtl> rtl_;
  std::optional<synth::Checkpoint> static_netlist_;
  std::optional<floorplan::Floorplan> floorplan_;
  std::optional<std::vector<floorplan::PartitionRequest>> requests_;
  std::optional<RouteTable> routes_;
};

}  // namespace presp::lint
