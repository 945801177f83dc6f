// Unified diagnostics engine for PR-ESP's static design-rule checkers.
//
// Every static check in the platform — the cross-layer config lint rules,
// the independent placement verifier, the config parsers' negative paths —
// reports through one Diagnostic type so tools can aggregate, filter and
// serialize findings uniformly. A diagnostic names the rule that fired,
// its severity, where in the source artifact it anchors (file / line /
// object path such as "tiles.r1c0"), a human message and a structured
// fix-hint.
//
// This header is deliberately dependency-light (util only) so low-level
// libraries like pnr can emit diagnostics without pulling in the lint
// rule engine.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace presp::lint {

enum class Severity : std::uint8_t { kError, kWarning, kInfo };

const char* to_string(Severity severity);

/// Location of a finding inside a source artifact. `file` is the config
/// or artifact path ("<memory>" for in-memory checks), `line` the
/// 1-based line when known (0 = unknown), `object` a dotted path naming
/// the object the rule fired on ("tiles.r1c0", "partition.RT_2",
/// "cell.mem_u12", ...).
struct SourceLoc {
  std::string file;
  int line = 0;
  std::string object;

  bool operator==(const SourceLoc&) const = default;
};

struct Diagnostic {
  /// Rule id, "<layer>.<rule>" ("floorplan.region-overlap", ...).
  std::string rule;
  Severity severity = Severity::kError;
  SourceLoc loc;
  std::string message;
  /// Structured suggestion for fixing the finding ("" if none).
  std::string fix_hint;

  bool operator==(const Diagnostic&) const = default;
};

/// Collects diagnostics from many rules. Exact duplicates (same rule,
/// location and message) are dropped so cascading artifact failures do
/// not multiply.
class DiagnosticEngine {
 public:
  /// Returns true when the diagnostic was added (false = duplicate).
  bool add(Diagnostic diag);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  bool empty() const { return diags_.empty(); }
  std::size_t size() const { return diags_.size(); }

  std::size_t count(Severity severity) const;
  bool has_errors() const { return count(Severity::kError) > 0; }
  /// True when any diagnostic with rule id `rule` was recorded.
  bool has_rule(const std::string& rule) const;

  /// Stable sort by (file, line, rule) for deterministic reports.
  void sort();

 private:
  std::vector<Diagnostic> diags_;
};

// ------------------------------------------------------------ reporters

/// Compiler-style text report, one finding per line plus indented
/// fix-hints:  file:line: error: [rule] message
std::string render_text(const std::vector<Diagnostic>& diags);

/// JSON report: {"diagnostics":[...], "errors":N, "warnings":N,
/// "infos":N}. Stable field order; strings are escaped.
std::string render_json(const std::vector<Diagnostic>& diags);

/// SARIF 2.1.0 report (one run, driver `tool_name`) for CI annotation
/// uploads. Severities map error -> "error", warning -> "warning",
/// info -> "note"; fix-hints ride in each result's property bag.
std::string render_sarif(const std::vector<Diagnostic>& diags,
                         const std::string& tool_name = "presp-lint");

}  // namespace presp::lint
