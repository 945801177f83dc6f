// Cross-layer static design-rule registry.
//
// Every rule declares its id ("<layer>.<name>"), layer, documentation
// string and default severity; its check receives the LintContext and
// reports through the DiagnosticEngine. Rules whose findings are emitted
// by other subsystems (the pnr placement verifier) are registered as
// catalog-only entries so one registry documents the complete rule set.
//
// The built-in catalog spans the stack (see DESIGN.md §10):
//   config    parse/validate failures, unknown target device, sections
//             no tool reads
//   netlist   unknown accelerators, duplicate partition members,
//             dangling nets, interface width mismatches
//   floorplan pblock overlap, capacity, member footprint, illegal
//             columns, ICAP reachability, infeasibility
//   noc       route-function deadlock freedom (channel dependency
//             graph), decoupler/queue gating coverage
//   runtime   [fleet] repacker interval, migration caps and budget
//   fleet     [fleet] topology sanity, QoS class weights and queue
//             bounds, circuit-breaker tuning
//   ops       [ops] telemetry-server port/bind sanity, SSE buffer
//             bounds, disabled-by-default check
//   exec      [exec] flow-cache directory and size budget
//   pnr       placement legality (emitted by pnr::verify_placement)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "floorplan/floorplan_io.hpp"
#include "lint/context.hpp"
#include "lint/diagnostic.hpp"

namespace presp::lint {

struct RuleInfo {
  std::string id;
  std::string layer;
  std::string description;
  Severity severity = Severity::kError;
};

class RuleRegistry {
 public:
  using CheckFn = std::function<void(LintContext&, DiagnosticEngine&)>;

  /// Registers a rule. A null `check` adds a catalog-only entry (the
  /// rule's diagnostics are produced elsewhere, e.g. by pnr::verify).
  void add(RuleInfo info, CheckFn check = nullptr);

  const std::vector<RuleInfo>& rules() const { return infos_; }
  const RuleInfo* find(const std::string& id) const;
  /// Rules that run against a LintContext (non-catalog-only).
  std::size_t num_checks() const;

  /// Runs every checked rule. Artifact materialization failures are
  /// converted into one diagnostic under the failing artifact's rule id
  /// (unless that rule already reported more precisely).
  void run(LintContext& context, DiagnosticEngine& engine) const;

  /// The built-in cross-layer rule catalog.
  static const RuleRegistry& builtin();

 private:
  std::vector<RuleInfo> infos_;
  std::vector<CheckFn> checks_;
};

/// Convenience: runs the built-in catalog over one configuration text
/// and returns the sorted diagnostics.
std::vector<Diagnostic> lint_config_text(const std::string& text,
                                         const std::string& file = "<memory>");

/// Lints a saved floorplan artifact (see floorplan/floorplan_io.hpp)
/// without a full configuration: runs the artifact-level subset of the
/// floorplan rules (region-overlap, region-capacity, illegal-column)
/// against it. An unknown device name is itself a diagnostic
/// (config.unknown-device) and skips the device-dependent checks.
/// `file` anchors the diagnostics (the artifact's path).
std::vector<Diagnostic> lint_floorplan_artifact(
    const floorplan::FloorplanArtifact& artifact,
    const std::string& file = "<memory>");

}  // namespace presp::lint
