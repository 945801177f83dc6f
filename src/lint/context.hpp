// Lazily-materialized artifact context for the cross-layer lint rules.
//
// A LintContext wraps one SoC configuration text and produces, on first
// request, every artifact a rule may need: the parsed Config and
// SocConfig, the component library (builtins + characterization + WAMI +
// custom [accelerator] sections), the elaborated RTL hierarchy, the
// synthesized static netlist, the DPR floorplan, the NoC route tables,
// the runtime reconfiguration plan ([runtime] section) and the exec task
// graph ([tasks] section). Artifacts are cached; materialization failures
// throw ArtifactError carrying the rule id the failure reports under, so
// the rule runner can convert them into diagnostics exactly once.
//
// Tests inject seeded-violation fixtures through the override_* setters,
// which bypass derivation for a single artifact while the rest of the
// pipeline still materializes normally.
//
// Optional config sections understood by the lint layer:
//
//   [runtime]
//   # request sequences, one key per software thread; ',' separates
//   # independent requests, '+' chains requests whose tile locks are
//   # held simultaneously (nested acquisition).
//   thread_main = r1c0:conv2d, r1c1:gemm + r1c0:fft
//   retry_budget = 3
//   max_attempts = 3
//   backoff_base_cycles = 10000
//   watchdog_reconf_margin = 8.0
//   # defragmentation repacker knobs (runtime.repacker-bounds)
//   repack_interval_cycles = 2000000
//   repack_migration_budget = 2
//
//   [bitstreams]
//   # explicit BitstreamStore manifest; defaults to every reconfigurable
//   # tile's member set when absent.
//   r1c0 = conv2d, gemm
//
//   [tasks]
//   # task = comma-separated dependencies ("" = source task)
//   synth_static =
//   pnr_static = synth_static
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
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

// ------------------------------------------------- runtime plan artifact

struct PlanRequest {
  int row = -1;
  int col = -1;
  int tile = -1;  // row-major grid index
  std::string module;
};

/// '+'-chained requests: the issuing thread acquires each request's tile
/// lock in order and holds all of them until the chain completes.
struct PlanChain {
  std::vector<PlanRequest> requests;
};

struct PlanThread {
  std::string name;
  int line = 0;  // config line of the thread key
  std::vector<PlanChain> chains;
};

/// Static model of the runtime manager's workload: per-thread request
/// sequences plus the retry/backoff tuning knobs (defaulted from
/// runtime::ManagerOptions when the [runtime] section omits them).
struct ReconfPlan {
  std::vector<PlanThread> threads;
  int retry_budget = 0;
  int max_attempts = 0;
  long long backoff_base_cycles = 0;
  double watchdog_reconf_margin = 0.0;
  /// Defragmentation repacker knobs (repack_* keys in [runtime];
  /// defaulted from runtime::RepackerOptions). repack_declared is set
  /// when any repack_* key appears.
  bool repack_declared = false;
  long long repack_interval_cycles = 0;
  double repack_frag_threshold = 0.0;
  int repack_max_migrations = 0;
  int repack_migration_budget = 0;
  /// True when the config carries a [runtime] section at all.
  bool declared = false;
};

// ------------------------------------------------------ exec artifact

struct TaskSpec {
  std::string name;
  std::vector<std::string> deps;
  int line = 0;
};

struct TaskGraphSpec {
  std::vector<TaskSpec> tasks;
  bool declared = false;

  const TaskSpec* find(const std::string& name) const;
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
  const ReconfPlan& plan();                   // config.parse
  const TaskGraphSpec& task_graph();          // config.parse
  /// Partial-bitstream manifest: modules available per tile ([bitstreams]
  /// section, else derived from the reconfigurable tiles' member sets).
  const std::map<int, std::vector<std::string>>& manifest();

  // Fixture injection (tests): replaces one artifact.
  void override_netlist(netlist::Netlist nl);
  void override_floorplan(floorplan::Floorplan plan,
                          std::vector<floorplan::PartitionRequest> requests);
  void override_routes(RouteTable routes);
  void override_rtl(netlist::SocRtl rtl);
  void override_plan(ReconfPlan plan);
  void override_task_graph(TaskGraphSpec spec);

  /// 1-based config line of `key` in `[section]` (0 if not found);
  /// anchors diagnostics into the source text.
  int line_of(const std::string& section, const std::string& key) const;
  /// 1-based line of the [section] header itself (0 if not found).
  int line_of_section(const std::string& section) const;

 private:
  ReconfPlan parse_plan();
  TaskGraphSpec parse_task_graph();

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
  std::optional<ReconfPlan> plan_;
  std::optional<TaskGraphSpec> task_graph_;
  std::optional<std::map<int, std::vector<std::string>>> manifest_;
};

}  // namespace presp::lint
