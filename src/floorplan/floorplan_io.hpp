// JSON persistence for floorplans: the flow writes one
// `<design>.floorplan.json` per run (when an artifacts dir is set) and
// `presp-lint --floorplan` reads it back to lint a saved plan without
// re-running the flow. The artifact carries the partition requests
// alongside the plan so capacity checks remain possible offline.
#pragma once

#include <string>
#include <vector>

#include "floorplan/floorplanner.hpp"

namespace presp::floorplan {

struct FloorplanArtifact {
  std::string design;
  /// Device name ("vc707", "vcu118", "vcu128") the plan was made for.
  std::string device;
  /// One request per partition, same order as plan.pblocks.
  std::vector<PartitionRequest> requests;
  Floorplan plan;
};

/// Renders the artifact as a JSON document.
std::string render_floorplan_json(const FloorplanArtifact& artifact);
/// Parses a document produced by render_floorplan_json(). Throws
/// presp::ConfigError on malformed input, an unknown field, an integer
/// field out of its type's range or trailing content.
FloorplanArtifact parse_floorplan_json(const std::string& text);

/// File wrappers; throw presp::Error on I/O failure.
void write_floorplan_json(const FloorplanArtifact& artifact,
                          const std::string& path);
FloorplanArtifact read_floorplan_json(const std::string& path);

}  // namespace presp::floorplan
