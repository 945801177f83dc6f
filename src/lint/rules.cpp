#include "lint/rules.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <set>

#include "fleet/topology.hpp"
#include "lint/cycle.hpp"
#include "runtime/manager.hpp"
#include "util/string_utils.hpp"

namespace presp::lint {

namespace {

/// Extracts "line N" from a parser message (Config::parse embeds one).
int extract_line(const std::string& message) {
  const std::size_t pos = message.find("line ");
  if (pos == std::string::npos) return 0;
  std::size_t i = pos + 5;
  long long line = 0;
  bool any = false;
  while (i < message.size() && message[i] >= '0' && message[i] <= '9') {
    line = line * 10 + (message[i] - '0');
    any = true;
    ++i;
  }
  return any && line > 0 && line < 1'000'000 ? static_cast<int>(line) : 0;
}

std::string tile_key(const netlist::SocConfig& config, int index) {
  return "r" + std::to_string(index / config.cols) + "c" +
         std::to_string(index % config.cols);
}

bool covers(const fabric::ResourceVec& have,
            const fabric::ResourceVec& need) {
  return have.luts >= need.luts && have.ffs >= need.ffs &&
         have.bram36 >= need.bram36 && have.dsp >= need.dsp;
}

std::string shortfall(const fabric::ResourceVec& have,
                      const fabric::ResourceVec& need) {
  std::string out;
  const auto add = [&out](const char* name, long long h, long long n) {
    if (h >= n) return;
    if (!out.empty()) out += ", ";
    out += std::string(name) + " " + std::to_string(n) + " > " +
           std::to_string(h);
  };
  add("LUT", have.luts, need.luts);
  add("FF", have.ffs, need.ffs);
  add("BRAM36", have.bram36, need.bram36);
  add("DSP", have.dsp, need.dsp);
  return out;
}

/// True when the pblock lies entirely on the device fabric (rules other
/// than floorplan.illegal-column skip off-fabric pblocks rather than
/// querying resources of columns that do not exist).
bool on_fabric(const fabric::Device& device, const fabric::Pblock& pblock) {
  return pblock.valid() && pblock.col_lo >= 0 &&
         pblock.col_hi < device.num_columns() && pblock.row_lo >= 0 &&
         pblock.row_hi < device.region_rows();
}

/// True when `route` is a well-formed mesh path from src to dst:
/// inclusive endpoints, every hop between 4-neighbour tiles.
bool valid_route(const RouteTable& table, const std::vector<int>& route,
                 int src, int dst) {
  if (route.empty() || route.front() != src || route.back() != dst)
    return false;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const int a = route[i];
    const int b = route[i + 1];
    if (a < 0 || a >= table.num_tiles() || b < 0 || b >= table.num_tiles())
      return false;
    const int ar = a / table.cols;
    const int ac = a % table.cols;
    const int br = b / table.cols;
    const int bc = b % table.cols;
    const int manhattan = std::abs(ar - br) + std::abs(ac - bc);
    if (manhattan != 1) return false;
  }
  return true;
}

// ------------------------------------------------------- config rules

/// True when some program reads `[section]`: SocConfig ([soc], [tiles]),
/// hls/spec_io.cpp ([accelerator <name>]), presp-flow ([exec], [ops])
/// and FleetTopology ([fleet]).
bool known_section(const std::string& section) {
  return section == "soc" || section == "tiles" || section == "exec" ||
         section == "fleet" || section == "ops" ||
         starts_with(section, "accelerator ");
}

void check_unknown_section(LintContext& ctx, DiagnosticEngine& engine) {
  for (const auto& [section, line] : ctx.section_headers()) {
    if (known_section(section)) continue;
    engine.add({"config.unknown-section",
                Severity::kWarning,
                {ctx.file(), line, section},
                "no tool reads section [" + section +
                    "]: its keys are silently ignored",
                "remove the section or fix its name (known: soc, tiles, "
                "exec, fleet, ops, accelerator <name>)"});
  }
}

// ------------------------------------------------------ netlist rules

void check_unknown_accelerator(LintContext& ctx, DiagnosticEngine& engine) {
  const auto& config = ctx.soc();
  const auto& lib = ctx.library();
  for (int index = 0; index < static_cast<int>(config.tiles.size());
       ++index) {
    const auto& tile = config.tiles[static_cast<std::size_t>(index)];
    for (const std::string& name : tile.accelerators) {
      if (lib.has(name)) continue;
      const std::string key = tile_key(config, index);
      engine.add({"netlist.unknown-accelerator",
                  Severity::kError,
                  {ctx.file(), ctx.line_of("tiles", key), "tiles." + key},
                  "accelerator '" + name +
                      "' is not registered in the fabric library",
                  "register it with an [accelerator " + name +
                      "] section or use a built-in kernel"});
    }
  }
}

void check_duplicate_member(LintContext& ctx, DiagnosticEngine& engine) {
  const auto& config = ctx.soc();
  for (int index = 0; index < static_cast<int>(config.tiles.size());
       ++index) {
    const auto& tile = config.tiles[static_cast<std::size_t>(index)];
    std::set<std::string> seen;
    for (const std::string& name : tile.accelerators) {
      if (seen.insert(name).second) continue;
      const std::string key = tile_key(config, index);
      engine.add({"netlist.duplicate-member",
                  Severity::kError,
                  {ctx.file(), ctx.line_of("tiles", key), "tiles." + key},
                  "module '" + name +
                      "' is listed twice in the partition member set "
                      "(bitstream store keys are (tile, module))",
                  "drop the duplicate entry"});
    }
  }
}

void check_dangling_net(LintContext& ctx, DiagnosticEngine& engine) {
  const auto& nl = ctx.static_netlist().netlist;
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const auto& net = nl.net(n);
    const SourceLoc loc{ctx.file(), 0, "net." + net.name};
    if (net.driver == netlist::kInvalidCell ||
        net.driver >= nl.num_cells()) {
      engine.add({"netlist.dangling-net", Severity::kError, loc,
                  "net '" + net.name + "' has no live driver",
                  "connect the net or remove it from the netlist"});
      continue;
    }
    bool bad_sink = false;
    for (const netlist::CellId sink : net.sinks)
      bad_sink |= sink >= nl.num_cells();
    if (bad_sink)
      engine.add({"netlist.dangling-net", Severity::kError, loc,
                  "net '" + net.name + "' has a sink outside the netlist",
                  "connect the net or remove it from the netlist"});
    if (net.sinks.empty())
      engine.add({"netlist.dangling-net", Severity::kWarning, loc,
                  "net '" + net.name + "' drives no sinks",
                  "remove the unloaded net"});
  }
}

void check_width_mismatch(LintContext& ctx, DiagnosticEngine& engine) {
  // (a) Structural: every net carries a positive bus width.
  const auto& nl = ctx.static_netlist().netlist;
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const auto& net = nl.net(n);
    if (net.width < 1)
      engine.add({"netlist.width-mismatch",
                  Severity::kError,
                  {ctx.file(), 0, "net." + net.name},
                  "net '" + net.name + "' has non-positive width " +
                      std::to_string(net.width),
                  "set the bus width to at least 1"});
  }
  // (b) Interface: every accelerator member must match the common
  // reconfigurable wrapper interface (ESP's fixed socket contract; a
  // mismatch would leave dangling or truncated partition pins). CPU
  // cores moved into the reconfigurable part (paper SOC_4) are exempt:
  // they bring their own processor socket, not the accelerator wrapper.
  const auto& lib = ctx.library();
  const int wrapper_bits =
      lib.get(netlist::ComponentLibrary::kReconfWrapper).interface_bits;
  const auto& config = ctx.soc();
  for (const auto& partition : ctx.rtl().partitions()) {
    for (const std::string& module : partition.modules) {
      if (module == netlist::ComponentLibrary::kLeon3 ||
          module == netlist::ComponentLibrary::kCva6)
        continue;
      const int bits = lib.get(module).interface_bits;
      if (bits == wrapper_bits) continue;
      const std::string key = tile_key(config, partition.tile_index);
      engine.add({"netlist.width-mismatch",
                  Severity::kError,
                  {ctx.file(), ctx.line_of("tiles", key),
                   "partition." + partition.name},
                  "module '" + module + "' exposes a " +
                      std::to_string(bits) +
                      "-bit interface but the reconfigurable wrapper is " +
                      std::to_string(wrapper_bits) + "-bit",
                  "regenerate the module with the common wrapper "
                  "interface width"});
    }
  }
}

// ---------------------------------------------------- floorplan rules
//
// The overlap/capacity/column checks are written against the plain
// (plan, requests, device) triple so they run both from a full config
// (via LintContext) and against a saved .floorplan.json artifact (via
// lint_floorplan_artifact), producing identical diagnostics.

void floorplan_overlap_core(
    const floorplan::Floorplan& plan,
    const std::vector<floorplan::PartitionRequest>& requests,
    const std::string& file, DiagnosticEngine& engine) {
  for (std::size_t i = 0; i < plan.pblocks.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.pblocks.size(); ++j) {
      if (!plan.pblocks[i].overlaps(plan.pblocks[j])) continue;
      const std::string a =
          i < requests.size() ? requests[i].name : std::to_string(i);
      const std::string b =
          j < requests.size() ? requests[j].name : std::to_string(j);
      engine.add({"floorplan.region-overlap",
                  Severity::kError,
                  {file, 0, "partition." + a},
                  "pblocks of partitions '" + a + "' " +
                      plan.pblocks[i].to_string() + " and '" + b + "' " +
                      plan.pblocks[j].to_string() + " overlap",
                  "re-run the floorplanner or separate the regions"});
    }
  }
}

void floorplan_capacity_core(
    const floorplan::Floorplan& plan,
    const std::vector<floorplan::PartitionRequest>& requests,
    const fabric::Device& device, const std::string& file,
    DiagnosticEngine& engine) {
  for (std::size_t i = 0;
       i < plan.pblocks.size() && i < requests.size(); ++i) {
    if (!on_fabric(device, plan.pblocks[i])) continue;
    const auto enclosed = fabric::pblock_resources(device, plan.pblocks[i]);
    if (covers(enclosed, requests[i].demand)) continue;
    engine.add({"floorplan.region-capacity",
                Severity::kError,
                {file, 0, "partition." + requests[i].name},
                "partition '" + requests[i].name + "' demands more than "
                    "its pblock " + plan.pblocks[i].to_string() +
                    " encloses (" +
                    shortfall(enclosed, requests[i].demand) + ")",
                "grow the pblock or shrink the partition's largest member"});
  }
}

void floorplan_column_core(
    const floorplan::Floorplan& plan,
    const std::vector<floorplan::PartitionRequest>& requests,
    const fabric::Device& device, const std::string& file,
    DiagnosticEngine& engine) {
  for (std::size_t i = 0; i < plan.pblocks.size(); ++i) {
    const auto& pblock = plan.pblocks[i];
    const std::string name =
        i < requests.size() ? requests[i].name : std::to_string(i);
    if (!on_fabric(device, pblock)) {
      engine.add({"floorplan.illegal-column",
                  Severity::kError,
                  {file, 0, "partition." + name},
                  "pblock " + pblock.to_string() + " of partition '" +
                      name + "' lies outside the device fabric",
                  "clamp the region to the device grid"});
      continue;
    }
    for (int col = pblock.col_lo; col <= pblock.col_hi; ++col) {
      const auto type = device.column_type(col);
      if (fabric::Device::reconfigurable_column(type)) continue;
      engine.add({"floorplan.illegal-column",
                  Severity::kError,
                  {file, 0, "partition." + name},
                  "pblock of partition '" + name + "' spans the " +
                      std::string(fabric::to_string(type)) + " column " +
                      std::to_string(col) +
                      " (clock/IO columns cannot be reconfigured)",
                  "move or split the region so it only covers "
                  "CLB/BRAM/DSP columns"});
      break;  // one diagnostic per pblock is enough
    }
  }
}

void check_region_overlap(LintContext& ctx, DiagnosticEngine& engine) {
  floorplan_overlap_core(ctx.floorplan(), ctx.partition_requests(),
                         ctx.file(), engine);
}

void check_region_capacity(LintContext& ctx, DiagnosticEngine& engine) {
  floorplan_capacity_core(ctx.floorplan(), ctx.partition_requests(),
                          ctx.device(), ctx.file(), engine);
}

void check_member_footprint(LintContext& ctx, DiagnosticEngine& engine) {
  const auto& plan = ctx.floorplan();
  const auto& device = ctx.device();
  const auto& lib = ctx.library();
  const auto& rtl = ctx.rtl();
  for (std::size_t p = 0;
       p < rtl.partitions().size() && p < plan.pblocks.size(); ++p) {
    const auto& partition = rtl.partitions()[p];
    if (!on_fabric(device, plan.pblocks[p])) continue;
    const auto enclosed =
        fabric::pblock_resources(device, plan.pblocks[p]);
    for (const std::string& module : partition.modules) {
      const auto need = netlist::SocRtl::module_resources(lib, module);
      if (covers(enclosed, need)) continue;
      engine.add({"floorplan.member-footprint",
                  Severity::kError,
                  {ctx.file(), 0, "partition." + partition.name},
                  "member '" + module + "' of partition '" +
                      partition.name + "' does not fit its pblock " +
                      plan.pblocks[p].to_string() + " (" +
                      shortfall(enclosed, need) + ")",
                  "size the region for the largest member (including the "
                  "reconfigurable wrapper)"});
    }
  }
}

void check_illegal_column(LintContext& ctx, DiagnosticEngine& engine) {
  floorplan_column_core(ctx.floorplan(), ctx.partition_requests(),
                        ctx.device(), ctx.file(), engine);
}

void check_icap_unreachable(LintContext& ctx, DiagnosticEngine& engine) {
  const auto& config = ctx.soc();
  const auto aux_tiles = config.tiles_of(netlist::TileType::kAux);
  if (aux_tiles.empty()) {
    engine.add({"floorplan.icap-unreachable",
                Severity::kError,
                {ctx.file(), ctx.line_of_section("tiles"), "tiles"},
                "no AUX tile hosts the ICAP/DFX controller",
                "add exactly one aux tile to the grid"});
    return;
  }
  const int aux = aux_tiles.front();
  const auto& table = ctx.routes();
  for (const auto& partition : ctx.rtl().partitions()) {
    const int tile = partition.tile_index;
    const bool to_aux =
        valid_route(table, table.route(tile, aux), tile, aux);
    const bool from_aux =
        valid_route(table, table.route(aux, tile), aux, tile);
    if (to_aux && from_aux) continue;
    const std::string key = tile_key(config, tile);
    engine.add({"floorplan.icap-unreachable",
                Severity::kError,
                {ctx.file(), ctx.line_of("tiles", key), "tiles." + key},
                "reconfigurable tile " + key +
                    " has no valid NoC route " +
                    (to_aux ? "from" : "to") +
                    " the ICAP/DFXC (aux) tile " + tile_key(config, aux),
                "fix the route function or move the tile inside the mesh"});
  }
}

// ---------------------------------------------------------- noc rules

void check_noc_deadlock(LintContext& ctx, DiagnosticEngine& engine) {
  const auto& table = ctx.routes();
  const long long tiles = table.num_tiles();
  // Channel dependency graph: one node per directed link (a -> b),
  // an edge when some route traverses link L1 immediately before L2.
  std::map<long long, std::set<long long>> edges;
  for (const auto& route : table.routes) {
    for (std::size_t i = 0; i + 2 < route.size(); ++i) {
      const long long l1 = route[i] * tiles + route[i + 1];
      const long long l2 = route[i + 1] * tiles + route[i + 2];
      edges[l1].insert(l2);
    }
  }
  // Map links onto dense vertices in ascending link order (successors
  // stay ascending too), so find_cycle (lint/cycle.hpp) explores them in
  // a fixed order and the same routes always report the same cycle.
  std::map<long long, int> vertex_of;
  for (const auto& [src, outs] : edges) {
    vertex_of.emplace(src, 0);
    for (const long long dst : outs) vertex_of.emplace(dst, 0);
  }
  std::vector<long long> links;
  links.reserve(vertex_of.size());
  for (auto& [link, vertex] : vertex_of) {
    vertex = static_cast<int>(links.size());
    links.push_back(link);
  }
  std::vector<std::vector<int>> adjacency(links.size());
  for (const auto& [src, outs] : edges)
    for (const long long dst : outs)
      adjacency[static_cast<std::size_t>(vertex_of[src])].push_back(
          vertex_of[dst]);
  const std::vector<int> walk = find_cycle(adjacency);
  if (walk.empty()) return;
  const auto link_name = [&](int vertex) {
    const long long link = links[static_cast<std::size_t>(vertex)];
    return "(" + std::to_string(link / tiles) + "->" +
           std::to_string(link % tiles) + ")";
  };
  // Show at most 9 links of the cycle, then close it on its first link.
  std::string cycle;
  for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
    if (i > 8) {
      cycle += " -> ...";
      break;
    }
    cycle += (cycle.empty() ? "" : " -> ") + link_name(walk[i]);
  }
  cycle += " -> " + link_name(walk.back());
  engine.add({"noc.deadlock",
              Severity::kError,
              {ctx.file(), 0, "noc"},
              "the route function admits a channel dependency cycle: " +
                  cycle,
              "use dimension-ordered (XY) routing or add virtual "
              "channels"});
}

void check_queue_gating(LintContext& ctx, DiagnosticEngine& engine) {
  const auto& rtl = ctx.rtl();
  const auto& config = ctx.soc();
  const auto has_block = [](const netlist::TileRtl& tile,
                            const char* block) {
    return std::find(tile.static_blocks.begin(), tile.static_blocks.end(),
                     block) != tile.static_blocks.end();
  };
  for (const auto& partition : rtl.partitions()) {
    const auto& tile =
        rtl.tiles()[static_cast<std::size_t>(partition.tile_index)];
    if (has_block(tile, netlist::ComponentLibrary::kDecoupler)) continue;
    const std::string key = tile_key(config, partition.tile_index);
    engine.add({"noc.queue-gating",
                Severity::kError,
                {ctx.file(), ctx.line_of("tiles", key), "tiles." + key},
                "reconfigurable tile " + key +
                    " has no PR decoupler: NoC traffic is not gated "
                    "during reconfiguration",
                "instantiate pr_decoupler in the tile's static socket"});
  }
  for (const auto& tile : rtl.tiles()) {
    if (tile.type != netlist::TileType::kAux) continue;
    if (has_block(tile, netlist::ComponentLibrary::kDfxController) &&
        has_block(tile, netlist::ComponentLibrary::kIcapWrapper))
      continue;
    const std::string key = tile_key(config, tile.index);
    engine.add({"noc.queue-gating",
                Severity::kError,
                {ctx.file(), ctx.line_of("tiles", key), "tiles." + key},
                "aux tile " + key +
                    " lacks the DFX controller / ICAP wrapper pair",
                "keep dfx_controller and icap_wrapper in the aux tile"});
  }
}

// -------------------------------------------------------- fleet rules
// The [fleet] section is parsed leniently by FleetTopology::from_config
// (FleetManager re-validates and throws); these rules are where
// misconfigurations get file/line diagnostics before anything runs.

/// Parses the [fleet] section, reporting a malformed section under
/// `fleet.topology`. Returns nullopt when the section is absent (every
/// fleet rule is then a no-op) or unparseable.
std::optional<fleet::FleetTopology> fleet_topology(LintContext& ctx,
                                                   DiagnosticEngine& engine) {
  const int line = ctx.line_of_section("fleet");
  if (line == 0) return std::nullopt;
  try {
    return fleet::FleetTopology::from_config(ctx.raw());
  } catch (const ConfigError& e) {
    engine.add({"fleet.topology",
                Severity::kError,
                {ctx.file(), line, "fleet"},
                std::string("malformed [fleet] section: ") + e.what(),
                "QoS class rows are 'weight, tokens_per_quantum, burst, "
                "queue_bound, deadline_quanta'"});
    return std::nullopt;
  }
}

SourceLoc fleet_loc(LintContext& ctx, const std::string& key) {
  int line = ctx.line_of("fleet", key);
  if (line == 0) line = ctx.line_of_section("fleet");
  return {ctx.file(), line, "fleet"};
}

void check_fleet_topology(LintContext& ctx, DiagnosticEngine& engine) {
  const auto topo = fleet_topology(ctx, engine);
  if (!topo) return;
  if (topo->shards < 1)
    engine.add({"fleet.topology", Severity::kError, fleet_loc(ctx, "shards"),
                "shards " + std::to_string(topo->shards) +
                    " leaves the fleet without a single SoC instance",
                "use at least one shard"});
  if (topo->quantum_cycles <= 0)
    engine.add({"fleet.topology", Severity::kError,
                fleet_loc(ctx, "quantum_cycles"),
                "quantum_cycles " + std::to_string(topo->quantum_cycles) +
                    " stalls the fleet clock",
                "use a positive scheduling quantum (default 4000 cycles)"});
  if (topo->coalesce_limit < 0)
    engine.add({"fleet.topology", Severity::kError,
                fleet_loc(ctx, "coalesce_limit"),
                "coalesce_limit " + std::to_string(topo->coalesce_limit) +
                    " is negative",
                "use 0 to disable coalescing or a positive follower cap"});
  if (topo->service_estimate_cycles <= 0)
    engine.add({"fleet.topology", Severity::kError,
                fleet_loc(ctx, "service_estimate_cycles"),
                "service_estimate_cycles " +
                    std::to_string(topo->service_estimate_cycles) +
                    " disables reject-early deadline shedding",
                "estimate one reconfiguration's cycles (default 120000)"});
}

void check_fleet_class_weights(LintContext& ctx, DiagnosticEngine& engine) {
  const auto topo = fleet_topology(ctx, engine);
  if (!topo) return;
  double weight_sum = 0.0;
  for (int c = 0; c < fleet::kNumQosClasses; ++c) {
    const fleet::QosClassParams& cls = topo->classes[c];
    const std::string key = std::string("class_") +
                            to_string(static_cast<fleet::QosClass>(c));
    if (cls.weight < 0.0)
      engine.add({"fleet.class-weights", Severity::kError,
                  fleet_loc(ctx, key),
                  key + " weight " + std::to_string(cls.weight) +
                      " is negative",
                  "QoS weights are non-negative relative shares"});
    else if (cls.weight == 0.0)
      engine.add({"fleet.class-weights", Severity::kWarning,
                  fleet_loc(ctx, key),
                  key + " weight 0 starves the class: its queue only "
                        "drains when every other class is empty",
                  "give every live class a positive weight"});
    weight_sum += std::max(cls.weight, 0.0);
  }
  if (weight_sum <= 0.0)
    engine.add({"fleet.class-weights", Severity::kError,
                fleet_loc(ctx, "class_standard"),
                "QoS class weights sum to zero: the dispatcher can never "
                "pick a queue",
                "give at least one class a positive weight"});
}

void check_fleet_queue_bounds(LintContext& ctx, DiagnosticEngine& engine) {
  const auto topo = fleet_topology(ctx, engine);
  if (!topo) return;
  for (int c = 0; c < fleet::kNumQosClasses; ++c) {
    const fleet::QosClassParams& cls = topo->classes[c];
    const std::string key = std::string("class_") +
                            to_string(static_cast<fleet::QosClass>(c));
    const SourceLoc loc = fleet_loc(ctx, key);
    if (cls.queue_bound <= 0)
      engine.add({"fleet.queue-bounds", Severity::kError, loc,
                  key + " queue_bound " + std::to_string(cls.queue_bound) +
                      " sheds every admission (kQueueFull)",
                  "bound the queue with a positive depth"});
    if (cls.deadline_quanta <= 0)
      engine.add({"fleet.queue-bounds", Severity::kError, loc,
                  key + " deadline_quanta " +
                      std::to_string(cls.deadline_quanta) +
                      " expires requests at submit time",
                  "use a positive per-class deadline"});
    if (cls.tokens_per_quantum <= 0.0)
      engine.add({"fleet.queue-bounds", Severity::kWarning, loc,
                  key + " tokens_per_quantum " +
                      std::to_string(cls.tokens_per_quantum) +
                      " never refills the bucket: the class is "
                      "permanently throttled",
                  "use a positive refill rate"});
    else if (cls.burst < cls.tokens_per_quantum)
      engine.add({"fleet.queue-bounds", Severity::kWarning, loc,
                  key + " burst " + std::to_string(cls.burst) +
                      " is below tokens_per_quantum: refill overflows "
                      "the bucket every quantum",
                  "set burst to at least one quantum's refill"});
  }
}

void check_fleet_breaker(LintContext& ctx, DiagnosticEngine& engine) {
  const auto topo = fleet_topology(ctx, engine);
  if (!topo) return;
  const fleet::BreakerOptions& breaker = topo->breaker;
  if (breaker.failure_threshold <= 0.0 || breaker.failure_threshold > 1.0)
    engine.add({"fleet.breaker", Severity::kError,
                fleet_loc(ctx, "breaker_failure_threshold"),
                "breaker_failure_threshold " +
                    std::to_string(breaker.failure_threshold) +
                    " is outside (0, 1]",
                "the threshold is a failure fraction of the window"});
  if (breaker.window < 1 || breaker.window > 64)
    engine.add({"fleet.breaker", Severity::kError,
                fleet_loc(ctx, "breaker_window"),
                "breaker_window " + std::to_string(breaker.window) +
                    " is outside [1, 64]",
                "the outcome window is a 64-bit ring"});
  if (breaker.open_base_cycles <= 0 ||
      breaker.open_max_cycles < breaker.open_base_cycles)
    engine.add({"fleet.breaker", Severity::kError,
                fleet_loc(ctx, "breaker_open_base_cycles"),
                "breaker backoff interval [" +
                    std::to_string(breaker.open_base_cycles) + ", " +
                    std::to_string(breaker.open_max_cycles) + "] is empty",
                "use 0 < breaker_open_base_cycles <= "
                "breaker_open_max_cycles"});
  if (breaker.half_open_probes < 1)
    engine.add({"fleet.breaker", Severity::kError,
                fleet_loc(ctx, "breaker_half_open_probes"),
                "breaker_half_open_probes " +
                    std::to_string(breaker.half_open_probes) +
                    " means an open breaker can never re-close",
                "allow at least one probe"});
  if (breaker.open_base_cycles > 0 &&
      breaker.open_base_cycles < topo->quantum_cycles)
    engine.add({"fleet.breaker", Severity::kWarning,
                fleet_loc(ctx, "breaker_open_base_cycles"),
                "breaker_open_base_cycles " +
                    std::to_string(breaker.open_base_cycles) +
                    " is shorter than one scheduling quantum: an open "
                    "breaker half-opens on the very next dispatch pass",
                "back off for at least one quantum (" +
                    std::to_string(topo->quantum_cycles) + " cycles)"});
}

void check_repacker_bounds(LintContext& ctx, DiagnosticEngine& engine) {
  // [fleet] repack knobs (per-shard repackers). Malformed sections are
  // fleet.topology's diagnostic; stay silent on them here.
  if (ctx.line_of_section("fleet") == 0) return;
  std::optional<fleet::FleetTopology> topo;
  try {
    topo = fleet::FleetTopology::from_config(ctx.raw());
  } catch (const ConfigError&) {
    return;
  }
  if (!topo->repack) return;
  // No config key sets the shard managers' retry budget: it is
  // ManagerOptions' default.
  const int retry_budget = runtime::ManagerOptions{}.retry_budget;
  if (topo->repack_interval_cycles <= 0)
    engine.add({"runtime.repacker-bounds", Severity::kError,
                fleet_loc(ctx, "repack_interval_cycles"),
                "repack_interval_cycles " +
                    std::to_string(topo->repack_interval_cycles) +
                    " makes every shard's repacker spin, starving its "
                    "DFXC request path",
                "use a positive interval (default 2000000 cycles)"});
  if (topo->repack_frag_threshold < 0.0 ||
      topo->repack_frag_threshold >= 1.0)
    engine.add({"runtime.repacker-bounds", Severity::kError,
                fleet_loc(ctx, "repack_frag_threshold"),
                "repack_frag_threshold " +
                    std::to_string(topo->repack_frag_threshold) +
                    " is outside [0, 1): the fragmentation ratio can "
                    "never exceed it",
                "use a threshold in [0, 1) (default 0.05)"});
  if (topo->repack_max_migrations < 1)
    engine.add({"runtime.repacker-bounds", Severity::kError,
                fleet_loc(ctx, "repack_max_migrations"),
                "repack_max_migrations " +
                    std::to_string(topo->repack_max_migrations) +
                    " means a repack pass can never migrate anything",
                "allow at least one migration per pass"});
  if (topo->repack_migration_budget < 1)
    engine.add({"runtime.repacker-bounds", Severity::kError,
                fleet_loc(ctx, "repack_migration_budget"),
                "repack_migration_budget " +
                    std::to_string(topo->repack_migration_budget) +
                    " aborts every pass before its first migration",
                "use a positive migration budget"});
  else if (topo->repack_migration_budget > retry_budget)
    engine.add({"runtime.repacker-bounds", Severity::kWarning,
                fleet_loc(ctx, "repack_migration_budget"),
                "repack_migration_budget " +
                    std::to_string(topo->repack_migration_budget) +
                    " exceeds the runtime retry_budget " +
                    std::to_string(retry_budget) +
                    ": background compaction out-retries the foreground "
                    "request path",
                "keep the migration budget at or below retry_budget"});
}

// ---------------------------------------------------------- ops rules
// The [ops] section configures the embedded telemetry server
// (ops::OpsOptions). The lint layer reads the raw keys directly (the ops
// library sits above lint in the dependency stack), so defaults here
// must mirror ops/options.hpp.

SourceLoc ops_loc(LintContext& ctx, const std::string& key) {
  int line = ctx.line_of("ops", key);
  if (line == 0) line = ctx.line_of_section("ops");
  return {ctx.file(), line, "ops"};
}

void check_ops_port(LintContext& ctx, DiagnosticEngine& engine) {
  const Config& config = ctx.raw();
  if (config.keys("ops").empty()) return;
  const long long port = config.get_int_or("ops", "port", 0);
  if (port < 0 || port > 65535)
    engine.add({"ops.port", Severity::kError, ops_loc(ctx, "port"),
                "ops port " + std::to_string(port) +
                    " is outside [0, 65535]",
                "use a TCP port (0 = ephemeral)"});
  else if (port > 0 && port < 1024)
    engine.add({"ops.port", Severity::kWarning, ops_loc(ctx, "port"),
                "ops port " + std::to_string(port) +
                    " is privileged (< 1024): binding needs root",
                "use an unprivileged port >= 1024"});
  const std::string bind = config.get_or("ops", "bind", "127.0.0.1");
  bool dotted_quad = !bind.empty();
  int dots = 0;
  for (const char c : bind) {
    if (c == '.') ++dots;
    else if (c < '0' || c > '9') dotted_quad = false;
  }
  if (!dotted_quad || dots != 3)
    engine.add({"ops.port", Severity::kError, ops_loc(ctx, "bind"),
                "ops bind address '" + bind +
                    "' is not an IPv4 dotted quad",
                "use e.g. 127.0.0.1 (loopback) or 0.0.0.0"});
}

void check_ops_sse_bounds(LintContext& ctx, DiagnosticEngine& engine) {
  const Config& config = ctx.raw();
  if (config.keys("ops").empty()) return;
  const long long buffer =
      config.get_int_or("ops", "sse_buffer_events", 64);
  if (buffer < 1)
    engine.add({"ops.sse-bounds", Severity::kError,
                ops_loc(ctx, "sse_buffer_events"),
                "sse_buffer_events " + std::to_string(buffer) +
                    " leaves SSE clients without a single event slot",
                "use a positive per-client ring capacity"});
  else if (buffer > 65536)
    engine.add({"ops.sse-bounds", Severity::kWarning,
                ops_loc(ctx, "sse_buffer_events"),
                "sse_buffer_events " + std::to_string(buffer) +
                    " buffers unbounded amounts of telemetry per slow "
                    "client",
                "keep the ring small; drops are counted, not fatal"});
  const long long interval =
      config.get_int_or("ops", "publish_interval_ms", 50);
  if (interval < 1)
    engine.add({"ops.sse-bounds", Severity::kError,
                ops_loc(ctx, "publish_interval_ms"),
                "publish_interval_ms " + std::to_string(interval) +
                    " spins the snapshot pump without pause",
                "use a positive publish interval"});
  const long long workers = config.get_int_or("ops", "workers", 4);
  const long long conns =
      config.get_int_or("ops", "max_connections", 16);
  if (workers < 1)
    engine.add({"ops.sse-bounds", Severity::kError, ops_loc(ctx, "workers"),
                "ops workers " + std::to_string(workers) +
                    " cannot serve any connection",
                "use at least one worker"});
  if (conns < 1)
    engine.add({"ops.sse-bounds", Severity::kError,
                ops_loc(ctx, "max_connections"),
                "max_connections " + std::to_string(conns) +
                    " rejects every connection with 503",
                "allow at least one connection"});
  // An SSE client occupies a worker for its whole subscription, so
  // connections far beyond the worker count queue behind the pool and
  // plain GETs starve. The shipped 16:4 default ratio is the accepted
  // ceiling; warn past it.
  if (workers >= 1 && conns > 4 * workers)
    engine.add({"ops.sse-bounds", Severity::kWarning,
                ops_loc(ctx, "max_connections"),
                "max_connections " + std::to_string(conns) +
                    " is more than 4x the " + std::to_string(workers) +
                    " workers: SSE subscribers can occupy every worker "
                    "and queue further requests",
                "size workers to the expected SSE client count"});
}

void check_ops_disabled_by_default(LintContext& ctx,
                                   DiagnosticEngine& engine) {
  const Config& config = ctx.raw();
  if (config.keys("ops").empty()) return;
  bool enabled = false;
  try {
    enabled = config.get_bool_or("ops", "enabled", false);
  } catch (const Error& e) {
    engine.add({"ops.disabled-by-default", Severity::kError,
                ops_loc(ctx, "enabled"),
                std::string("malformed [ops] enabled flag: ") + e.what(),
                "use enabled = true|false"});
    return;
  }
  if (!enabled) {
    // The section exists but the master switch is off (or missing): the
    // server never starts, which is easy to misread as "configured".
    engine.add({"ops.disabled-by-default", Severity::kWarning,
                ops_loc(ctx, "enabled"),
                "[ops] section present but enabled is false (the server "
                "is opt-in and will not start)",
                "set enabled = true to open the telemetry port"});
    return;
  }
  const std::string bind = config.get_or("ops", "bind", "127.0.0.1");
  if (bind != "127.0.0.1")
    engine.add({"ops.disabled-by-default", Severity::kWarning,
                ops_loc(ctx, "bind"),
                "ops server enabled on non-loopback bind '" + bind +
                    "': telemetry (metrics, health, traces) is exposed "
                    "to the network",
                "bind to 127.0.0.1 unless the deployment needs remote "
                "scrapes"});
}

// --------------------------------------------------------- exec rules

/// Nearest existing ancestor of `path` (the path itself when it exists).
std::filesystem::path nearest_existing(std::filesystem::path path) {
  std::error_code ec;
  while (!path.empty() && !std::filesystem::exists(path, ec)) {
    const std::filesystem::path parent = path.parent_path();
    if (parent == path) break;
    path = parent;
  }
  return path.empty() ? std::filesystem::current_path(ec) : path;
}

void check_exec_cache_dir_writable(LintContext& ctx,
                                   DiagnosticEngine& engine) {
  const Config& raw = ctx.raw();
  if (!raw.has("exec", "cache_dir")) return;
  const int line = ctx.line_of("exec", "cache_dir");
  const std::string dir = raw.get_or("exec", "cache_dir", "");
  if (dir.empty()) {
    engine.add({"exec.cache-dir-writable",
                Severity::kError,
                {ctx.file(), line, "exec"},
                "cache_dir is set but empty: the flow cache would be "
                "silently disabled",
                "remove the key or point it at a writable directory"});
    return;
  }
  // The flow creates missing directories itself, so only the nearest
  // existing ancestor has to be a writable directory at lint time.
  std::error_code ec;
  const std::filesystem::path anchor = nearest_existing(dir);
  if (std::filesystem::exists(anchor, ec) &&
      !std::filesystem::is_directory(anchor, ec)) {
    engine.add({"exec.cache-dir-writable",
                Severity::kError,
                {ctx.file(), line, "exec"},
                "cache_dir '" + dir + "' cannot be created: '" +
                    anchor.string() + "' exists and is not a directory",
                "point cache_dir below an existing directory"});
    return;
  }
  if (::access(anchor.c_str(), W_OK | X_OK) != 0) {
    engine.add({"exec.cache-dir-writable",
                Severity::kError,
                {ctx.file(), line, "exec"},
                "cache_dir '" + dir + "' is not writable (nearest "
                "existing ancestor '" + anchor.string() +
                    "' denies write access)",
                "choose a directory the flow can create files in"});
  }
}

void check_exec_cache_size_bounds(LintContext& ctx,
                                  DiagnosticEngine& engine) {
  const Config& raw = ctx.raw();
  if (!raw.has("exec", "cache_max_bytes")) return;
  const int line = ctx.line_of("exec", "cache_max_bytes");
  long long max_bytes = 0;
  try {
    max_bytes = raw.get_int("exec", "cache_max_bytes");
  } catch (const Error& e) {
    engine.add({"exec.cache-size-bounds",
                Severity::kError,
                {ctx.file(), line, "exec"},
                std::string("cache_max_bytes: ") + e.what(),
                "use a byte count (0 or negative means unbounded)"});
    return;
  }
  // A single static-region checkpoint (routing usage vector) already
  // runs to hundreds of kilobytes; caps below 1 MiB just thrash.
  constexpr long long kMinUseful = 1LL << 20;
  if (max_bytes > 0 && max_bytes < kMinUseful) {
    engine.add({"exec.cache-size-bounds",
                Severity::kError,
                {ctx.file(), line, "exec"},
                "cache_max_bytes " + std::to_string(max_bytes) +
                    " is smaller than a single checkpoint: every store "
                    "would immediately evict",
                "use at least " + std::to_string(kMinUseful) +
                    " (1 MiB), or 0 for unbounded"});
  }
  if (!raw.has("exec", "cache_dir")) {
    engine.add({"exec.cache-size-bounds",
                Severity::kWarning,
                {ctx.file(), line, "exec"},
                "cache_max_bytes has no effect: cache_dir is not set, so "
                "the flow cache is disabled",
                "set [exec] cache_dir to enable the cache"});
  }
}

// ------------------------------------------------- artifact-gate rules

void force_parse(LintContext& ctx, DiagnosticEngine&) {
  ctx.soc();
  ctx.library();
}

void force_device(LintContext& ctx, DiagnosticEngine&) { ctx.device(); }

void force_floorplan(LintContext& ctx, DiagnosticEngine&) {
  ctx.floorplan();
}

}  // namespace

// ----------------------------------------------------------- registry

void RuleRegistry::add(RuleInfo info, CheckFn check) {
  infos_.push_back(std::move(info));
  checks_.push_back(std::move(check));
}

const RuleInfo* RuleRegistry::find(const std::string& id) const {
  for (const RuleInfo& info : infos_)
    if (info.id == id) return &info;
  return nullptr;
}

std::size_t RuleRegistry::num_checks() const {
  return static_cast<std::size_t>(
      std::count_if(checks_.begin(), checks_.end(),
                    [](const CheckFn& fn) { return fn != nullptr; }));
}

void RuleRegistry::run(LintContext& context,
                       DiagnosticEngine& engine) const {
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (!checks_[i]) continue;
    try {
      checks_[i](context, engine);
    } catch (const ArtifactError& e) {
      if (engine.has_rule(e.rule())) continue;
      const RuleInfo* info = find(e.rule());
      engine.add({e.rule(),
                  info != nullptr ? info->severity : Severity::kError,
                  {context.file(), extract_line(e.what()), ""},
                  e.what(),
                  ""});
    } catch (const Error& e) {
      // Defensive: a rule tripped over an inconsistent artifact. Report
      // it under the rule's own id instead of aborting the whole run.
      engine.add({infos_[i].id,
                  infos_[i].severity,
                  {context.file(), 0, ""},
                  e.what(),
                  ""});
    }
  }
  engine.sort();
}

const RuleRegistry& RuleRegistry::builtin() {
  static const RuleRegistry registry = [] {
    RuleRegistry r;
    // config
    r.add({"config.parse", "config",
           "configuration parses and passes structural validation",
           Severity::kError},
          force_parse);
    r.add({"config.unknown-device", "config",
           "the target device names a supported board model",
           Severity::kError},
          force_device);
    r.add({"config.unknown-section", "config",
           "every section is one a tool reads (soc, tiles, exec, fleet, "
           "ops, accelerator <name>)",
           Severity::kWarning},
          check_unknown_section);
    // netlist
    r.add({"netlist.unknown-accelerator", "netlist",
           "every referenced accelerator exists in the fabric library",
           Severity::kError},
          check_unknown_accelerator);
    r.add({"netlist.duplicate-member", "netlist",
           "no module is listed twice in one partition member set",
           Severity::kError},
          check_duplicate_member);
    r.add({"netlist.dangling-net", "netlist",
           "every net has a live driver and at least one sink",
           Severity::kError},
          check_dangling_net);
    r.add({"netlist.width-mismatch", "netlist",
           "net widths are positive and partition members match the "
           "common wrapper interface width",
           Severity::kError},
          check_width_mismatch);
    // floorplan
    r.add({"floorplan.infeasible", "floorplan",
           "a legal floorplan exists for the partition demands",
           Severity::kError},
          force_floorplan);
    r.add({"floorplan.region-overlap", "floorplan",
           "PR region pblocks are pairwise disjoint", Severity::kError},
          check_region_overlap);
    r.add({"floorplan.region-capacity", "floorplan",
           "every pblock encloses its partition's resource demand",
           Severity::kError},
          check_region_capacity);
    r.add({"floorplan.member-footprint", "floorplan",
           "every partition member (plus wrapper) fits its region",
           Severity::kError},
          check_member_footprint);
    r.add({"floorplan.illegal-column", "floorplan",
           "pblocks avoid clocking-spine and I/O columns and stay on "
           "the fabric",
           Severity::kError},
          check_illegal_column);
    r.add({"floorplan.icap-unreachable", "floorplan",
           "every PR tile has valid NoC routes to and from the "
           "ICAP/DFXC aux tile",
           Severity::kError},
          check_icap_unreachable);
    // noc
    r.add({"noc.deadlock", "noc",
           "the route function's channel dependency graph is acyclic "
           "(static deadlock freedom)",
           Severity::kError},
          check_noc_deadlock);
    r.add({"noc.queue-gating", "noc",
           "every reconfigurable tile is decoupler-gated and the aux "
           "tile hosts the DFXC/ICAP pair",
           Severity::kError},
          check_queue_gating);
    // runtime
    r.add({"runtime.repacker-bounds", "runtime",
           "defragmentation repacker interval, migration caps and budget "
           "are sane and defer to the foreground retry budget",
           Severity::kWarning},
          check_repacker_bounds);
    // fleet
    r.add({"fleet.topology", "fleet",
           "the [fleet] section parses and the shard/quantum/coalesce "
           "parameters can actually run",
           Severity::kError},
          check_fleet_topology);
    r.add({"fleet.class-weights", "fleet",
           "QoS class weights are non-negative and at least one class "
           "can be dispatched",
           Severity::kError},
          check_fleet_class_weights);
    r.add({"fleet.queue-bounds", "fleet",
           "per-class queues are bounded, deadlines are positive and "
           "token buckets can refill",
           Severity::kError},
          check_fleet_queue_bounds);
    r.add({"fleet.breaker", "fleet",
           "circuit-breaker threshold, window, backoff interval and "
           "probe budget are sane",
           Severity::kError},
          check_fleet_breaker);
    // ops
    r.add({"ops.port", "ops",
           "the telemetry server's port is a valid TCP port and the bind "
           "address parses as IPv4",
           Severity::kError},
          check_ops_port);
    r.add({"ops.sse-bounds", "ops",
           "SSE ring capacity, publish interval, worker and connection "
           "caps are positive and sized together",
           Severity::kError},
          check_ops_sse_bounds);
    r.add({"ops.disabled-by-default", "ops",
           "a configured [ops] section actually enables the server, and "
           "an enabled server does not bind off-loopback unnoticed",
           Severity::kWarning},
          check_ops_disabled_by_default);
    // exec
    r.add({"exec.cache-dir-writable", "exec",
           "[exec] cache_dir points at a creatable, writable directory",
           Severity::kError},
          check_exec_cache_dir_writable);
    r.add({"exec.cache-size-bounds", "exec",
           "[exec] cache_max_bytes is a sane byte budget and paired "
           "with cache_dir",
           Severity::kError},
          check_exec_cache_size_bounds);
    // pnr (catalog-only: emitted by pnr::verify_placement)
    r.add({"pnr.unplaced-cell", "pnr",
           "every cell has a valid placement location", Severity::kError});
    r.add({"pnr.out-of-bounds", "pnr",
           "placed cells stay inside the device grid", Severity::kError});
    r.add({"pnr.illegal-column", "pnr",
           "logic never lands on the clocking spine", Severity::kError});
    r.add({"pnr.outside-region", "pnr",
           "constrained cells stay inside their region", Severity::kError});
    r.add({"pnr.inside-keepout", "pnr",
           "movable cells avoid keepout rectangles", Severity::kError});
    r.add({"pnr.capacity-overflow", "pnr",
           "per-cell LUT usage stays within site capacity",
           Severity::kError});
    return r;
  }();
  return registry;
}

std::vector<Diagnostic> lint_config_text(const std::string& text,
                                         const std::string& file) {
  LintContext context(text, file);
  DiagnosticEngine engine;
  RuleRegistry::builtin().run(context, engine);
  return engine.diagnostics();
}

std::vector<Diagnostic> lint_floorplan_artifact(
    const floorplan::FloorplanArtifact& artifact, const std::string& file) {
  DiagnosticEngine engine;
  floorplan_overlap_core(artifact.plan, artifact.requests, file, engine);
  const std::string& name = artifact.device;
  std::optional<fabric::Device> device;
  if (name == "vc707") device = fabric::Device::vc707();
  else if (name == "vcu118") device = fabric::Device::vcu118();
  else if (name == "vcu128") device = fabric::Device::vcu128();
  else
    engine.add({"config.unknown-device",
                Severity::kError,
                {file, 0, "device"},
                "unknown device '" + name +
                    "' (expected vc707|vcu118|vcu128); skipping "
                    "device-dependent floorplan checks",
                "regenerate the artifact with a supported board"});
  if (device) {
    floorplan_capacity_core(artifact.plan, artifact.requests, *device, file,
                            engine);
    floorplan_column_core(artifact.plan, artifact.requests, *device, file,
                          engine);
  }
  engine.sort();
  return engine.diagnostics();
}

}  // namespace presp::lint
