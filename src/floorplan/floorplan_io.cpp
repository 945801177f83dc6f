#include "floorplan/floorplan_io.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace presp::floorplan {

namespace {

void append_resources(std::string& out, const fabric::ResourceVec& vec) {
  out += "{\"luts\":" + std::to_string(vec.luts) +
         ",\"ffs\":" + std::to_string(vec.ffs) +
         ",\"bram36\":" + std::to_string(vec.bram36) +
         ",\"dsp\":" + std::to_string(vec.dsp) + "}";
}

void append_pblock(std::string& out, const fabric::Pblock& pb) {
  out += "{\"col_lo\":" + std::to_string(pb.col_lo) +
         ",\"col_hi\":" + std::to_string(pb.col_hi) +
         ",\"row_lo\":" + std::to_string(pb.row_lo) +
         ",\"row_hi\":" + std::to_string(pb.row_hi) + "}";
}

fabric::ResourceVec read_resources(JsonReader& reader) {
  fabric::ResourceVec vec;
  reader.members([&](const std::string& key) {
    const std::int64_t value =
        reader.integer(std::numeric_limits<std::int64_t>::min(),
                       std::numeric_limits<std::int64_t>::max());
    if (key == "luts") vec.luts = value;
    else if (key == "ffs") vec.ffs = value;
    else if (key == "bram36") vec.bram36 = value;
    else if (key == "dsp") vec.dsp = value;
    else reader.fail("unknown resource field '" + key + "'");
  });
  return vec;
}

fabric::Pblock read_pblock(JsonReader& reader) {
  fabric::Pblock pb;
  reader.members([&](const std::string& key) {
    const int value = static_cast<int>(
        reader.integer(std::numeric_limits<int>::min(),
                       std::numeric_limits<int>::max()));
    if (key == "col_lo") pb.col_lo = value;
    else if (key == "col_hi") pb.col_hi = value;
    else if (key == "row_lo") pb.row_lo = value;
    else if (key == "row_hi") pb.row_hi = value;
    else reader.fail("unknown pblock field '" + key + "'");
  });
  return pb;
}

}  // namespace

std::string render_floorplan_json(const FloorplanArtifact& artifact) {
  PRESP_REQUIRE(artifact.requests.size() == artifact.plan.pblocks.size(),
                "floorplan artifact: request/pblock count mismatch");
  std::string out = "{\n  \"design\": ";
  append_json_string(out, artifact.design);
  out += ",\n  \"device\": ";
  append_json_string(out, artifact.device);
  out += ",\n  \"partitions\": [";
  for (std::size_t i = 0; i < artifact.requests.size(); ++i) {
    out += (i == 0) ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_json_string(out, artifact.requests[i].name);
    out += ", \"demand\": ";
    append_resources(out, artifact.requests[i].demand);
    out += ", \"pblock\": ";
    append_pblock(out, artifact.plan.pblocks[i]);
    out += "}";
  }
  if (!artifact.requests.empty()) out += "\n  ";
  out += "],\n  \"static_capacity\": ";
  append_resources(out, artifact.plan.static_capacity);
  out += ",\n  \"waste\": " + std::to_string(artifact.plan.waste);
  out += "\n}\n";
  return out;
}

FloorplanArtifact parse_floorplan_json(const std::string& text) {
  FloorplanArtifact artifact;
  JsonReader reader(text, "floorplan json");
  reader.members([&](const std::string& key) {
    if (key == "design") {
      artifact.design = reader.string();
    } else if (key == "device") {
      artifact.device = reader.string();
    } else if (key == "partitions") {
      reader.elements([&] {
        PartitionRequest request;
        fabric::Pblock pb;
        reader.members([&](const std::string& field) {
          if (field == "name") request.name = reader.string();
          else if (field == "demand") request.demand = read_resources(reader);
          else if (field == "pblock") pb = read_pblock(reader);
          else reader.fail("unknown partition field '" + field + "'");
        });
        artifact.requests.push_back(request);
        artifact.plan.pblocks.push_back(pb);
      });
    } else if (key == "static_capacity") {
      artifact.plan.static_capacity = read_resources(reader);
    } else if (key == "waste") {
      artifact.plan.waste = reader.number();
    } else {
      reader.fail("unknown field '" + key + "'");
    }
  });
  reader.finish();
  return artifact;
}

void write_floorplan_json(const FloorplanArtifact& artifact,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot write floorplan artifact: " + path);
  out << render_floorplan_json(artifact);
  if (!out) throw Error("failed writing floorplan artifact: " + path);
}

FloorplanArtifact read_floorplan_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read floorplan artifact: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_floorplan_json(buffer.str());
}

}  // namespace presp::floorplan
