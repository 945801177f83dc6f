#include "lint/diagnostic.hpp"

#include <algorithm>
#include <sstream>

#include "util/json.hpp"

namespace presp::lint {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kInfo: return "info";
  }
  return "?";
}

bool DiagnosticEngine::add(Diagnostic diag) {
  for (const Diagnostic& existing : diags_)
    if (existing == diag) return false;
  diags_.push_back(std::move(diag));
  return true;
}

std::size_t DiagnosticEngine::count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [severity](const Diagnostic& d) {
                      return d.severity == severity;
                    }));
}

bool DiagnosticEngine::has_rule(const std::string& rule) const {
  return std::any_of(diags_.begin(), diags_.end(),
                     [&rule](const Diagnostic& d) { return d.rule == rule; });
}

void DiagnosticEngine::sort() {
  std::stable_sort(diags_.begin(), diags_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.loc.file != b.loc.file)
                       return a.loc.file < b.loc.file;
                     if (a.loc.line != b.loc.line)
                       return a.loc.line < b.loc.line;
                     return a.rule < b.rule;
                   });
}

// ------------------------------------------------------------ reporters

std::string render_text(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) ++errors;
    if (d.severity == Severity::kWarning) ++warnings;
    os << (d.loc.file.empty() ? "<memory>" : d.loc.file);
    if (d.loc.line > 0) os << ':' << d.loc.line;
    os << ": " << to_string(d.severity) << ": [" << d.rule << "] "
       << d.message;
    if (!d.loc.object.empty()) os << " (" << d.loc.object << ")";
    os << '\n';
    if (!d.fix_hint.empty()) os << "    hint: " << d.fix_hint << '\n';
  }
  os << errors << " error(s), " << warnings << " warning(s), "
     << diags.size() - errors - warnings << " info(s)\n";
  return os.str();
}

std::string render_json(const std::vector<Diagnostic>& diags) {
  std::string out = "{\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"rule\": ";
    append_json_string(out, d.rule);
    out += ", \"severity\": ";
    append_json_string(out, to_string(d.severity));
    out += ", \"file\": ";
    append_json_string(out, d.loc.file);
    out += ", \"line\": " + std::to_string(d.loc.line);
    out += ", \"object\": ";
    append_json_string(out, d.loc.object);
    out += ", \"message\": ";
    append_json_string(out, d.message);
    out += ", \"fix_hint\": ";
    append_json_string(out, d.fix_hint);
    out += "}";
  }
  if (!diags.empty()) out += "\n  ";
  out += "],\n";
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t infos = 0;
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) ++errors;
    else if (d.severity == Severity::kWarning) ++warnings;
    else ++infos;
  }
  out += "  \"errors\": " + std::to_string(errors) + ",\n";
  out += "  \"warnings\": " + std::to_string(warnings) + ",\n";
  out += "  \"infos\": " + std::to_string(infos) + "\n}\n";
  return out;
}

std::string render_sarif(const std::vector<Diagnostic>& diags,
                         const std::string& tool_name) {
  const auto sarif_level = [](Severity severity) -> const char* {
    switch (severity) {
      case Severity::kError: return "error";
      case Severity::kWarning: return "warning";
      case Severity::kInfo: return "note";
    }
    return "none";
  };

  std::string out =
      "{\n"
      "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
      "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": ";
  append_json_string(out, tool_name);
  out += ",\n          \"rules\": [";
  // Deduplicated, first-appearance-ordered rule table; results reference
  // it by index so viewers can group findings per rule.
  std::vector<std::string> rule_ids;
  for (const Diagnostic& d : diags)
    if (std::find(rule_ids.begin(), rule_ids.end(), d.rule) ==
        rule_ids.end())
      rule_ids.push_back(d.rule);
  for (std::size_t i = 0; i < rule_ids.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "            {\"id\": ";
    append_json_string(out, rule_ids[i]);
    out += "}";
  }
  if (!rule_ids.empty()) out += "\n          ";
  out +=
      "]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    const std::size_t rule_index = static_cast<std::size_t>(
        std::find(rule_ids.begin(), rule_ids.end(), d.rule) -
        rule_ids.begin());
    out += i == 0 ? "\n" : ",\n";
    out += "        {\"ruleId\": ";
    append_json_string(out, d.rule);
    out += ", \"ruleIndex\": " + std::to_string(rule_index);
    out += ", \"level\": \"";
    out += sarif_level(d.severity);
    out += "\", \"message\": {\"text\": ";
    append_json_string(out, d.message);
    out += "}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": ";
    append_json_string(out, d.loc.file.empty() ? "<memory>" : d.loc.file);
    out += "}";
    if (d.loc.line > 0)
      out += ", \"region\": {\"startLine\": " + std::to_string(d.loc.line) +
             "}";
    out += "}";
    if (!d.loc.object.empty()) {
      out += ", \"logicalLocations\": [{\"fullyQualifiedName\": ";
      append_json_string(out, d.loc.object);
      out += "}]";
    }
    out += "}]";
    if (!d.fix_hint.empty()) {
      out += ", \"properties\": {\"fixHint\": ";
      append_json_string(out, d.fix_hint);
      out += "}";
    }
    out += "}";
  }
  if (!diags.empty()) out += "\n      ";
  out +=
      "]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace presp::lint
