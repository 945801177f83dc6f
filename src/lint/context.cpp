#include "lint/context.hpp"

#include <fstream>
#include <sstream>

#include "hls/library.hpp"
#include "hls/spec_io.hpp"
#include "noc/noc.hpp"
#include "runtime/manager.hpp"
#include "runtime/repacker.hpp"
#include "util/string_utils.hpp"
#include "wami/accelerators.hpp"

namespace presp::lint {

namespace {

/// Parses a "r<R>c<C>" tile key; throws ConfigError on malformed input.
std::pair<int, int> parse_tile_key(const std::string& key) {
  if (key.size() < 4 || key[0] != 'r')
    throw ConfigError("malformed tile key '" + key + "' (want r<R>c<C>)");
  const std::size_t cpos = key.find('c', 1);
  if (cpos == std::string::npos)
    throw ConfigError("malformed tile key '" + key + "' (want r<R>c<C>)");
  const int row = static_cast<int>(parse_int(key.substr(1, cpos - 1)));
  const int col = static_cast<int>(parse_int(key.substr(cpos + 1)));
  return {row, col};
}

}  // namespace

const TaskSpec* TaskGraphSpec::find(const std::string& name) const {
  for (const TaskSpec& t : tasks)
    if (t.name == name) return &t;
  return nullptr;
}

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

ReconfPlan LintContext::parse_plan() {
  const Config& cfg = raw();
  const netlist::SocConfig& config = soc();

  ReconfPlan plan;
  const runtime::ManagerOptions defaults;
  plan.retry_budget = defaults.retry_budget;
  plan.max_attempts = defaults.max_attempts;
  plan.backoff_base_cycles = defaults.backoff_base_cycles;
  plan.watchdog_reconf_margin = defaults.watchdog_reconf_margin;
  const runtime::RepackerOptions repack_defaults;
  plan.repack_interval_cycles = repack_defaults.interval_cycles;
  plan.repack_frag_threshold = repack_defaults.frag_threshold;
  plan.repack_max_migrations = repack_defaults.max_migrations_per_pass;
  plan.repack_migration_budget = repack_defaults.migration_budget;

  const auto keys = cfg.keys("runtime");
  if (keys.empty()) return plan;
  plan.declared = true;

  for (const std::string& key : keys) {
    const std::string& value = cfg.get("runtime", key);
    try {
      if (starts_with(key, "thread")) {
        PlanThread thread;
        thread.name = key;
        thread.line = line_of("runtime", key);
        for (const std::string& chain_text : split(value, ',')) {
          PlanChain chain;
          for (const std::string& token : split(chain_text, '+')) {
            const std::string request_text{trim(token)};
            if (request_text.empty()) continue;
            const std::size_t colon = request_text.find(':');
            if (colon == std::string::npos)
              throw ConfigError("malformed request '" + request_text +
                                "' (want r<R>c<C>:<module>)");
            PlanRequest request;
            const auto [row, col] =
                parse_tile_key(request_text.substr(0, colon));
            request.row = row;
            request.col = col;
            if (row < 0 || row >= config.rows || col < 0 ||
                col >= config.cols)
              throw ConfigError("request tile r" + std::to_string(row) +
                                "c" + std::to_string(col) +
                                " outside the grid");
            request.tile = row * config.cols + col;
            request.module =
                std::string(trim(request_text.substr(colon + 1)));
            if (request.module.empty())
              throw ConfigError("request '" + request_text +
                                "' names no module");
            chain.requests.push_back(std::move(request));
          }
          if (!chain.requests.empty())
            thread.chains.push_back(std::move(chain));
        }
        plan.threads.push_back(std::move(thread));
      } else if (key == "retry_budget") {
        plan.retry_budget = static_cast<int>(parse_int(value));
      } else if (key == "max_attempts") {
        plan.max_attempts = static_cast<int>(parse_int(value));
      } else if (key == "backoff_base_cycles") {
        plan.backoff_base_cycles = parse_int(value);
      } else if (key == "watchdog_reconf_margin") {
        plan.watchdog_reconf_margin = parse_double(value);
      } else if (key == "repack_interval_cycles") {
        plan.repack_interval_cycles = parse_int(value);
        plan.repack_declared = true;
      } else if (key == "repack_frag_threshold") {
        plan.repack_frag_threshold = parse_double(value);
        plan.repack_declared = true;
      } else if (key == "repack_max_migrations") {
        plan.repack_max_migrations = static_cast<int>(parse_int(value));
        plan.repack_declared = true;
      } else if (key == "repack_migration_budget") {
        plan.repack_migration_budget = static_cast<int>(parse_int(value));
        plan.repack_declared = true;
      } else {
        throw ConfigError("unknown [runtime] key '" + key + "'");
      }
    } catch (const ConfigError& e) {
      throw ArtifactError("config.parse",
                          "[runtime] " + key + ": " + e.what());
    }
  }
  return plan;
}

const ReconfPlan& LintContext::plan() {
  if (!plan_) plan_ = parse_plan();
  return *plan_;
}

TaskGraphSpec LintContext::parse_task_graph() {
  const Config& cfg = raw();
  TaskGraphSpec spec;
  const auto keys = cfg.keys("tasks");
  if (keys.empty()) return spec;
  spec.declared = true;
  for (const std::string& key : keys) {
    TaskSpec task;
    task.name = key;
    task.line = line_of("tasks", key);
    for (const std::string& dep : split(cfg.get("tasks", key), ',')) {
      const std::string name{trim(dep)};
      if (!name.empty()) task.deps.push_back(name);
    }
    spec.tasks.push_back(std::move(task));
  }
  return spec;
}

const TaskGraphSpec& LintContext::task_graph() {
  if (!task_graph_) task_graph_ = parse_task_graph();
  return *task_graph_;
}

const std::map<int, std::vector<std::string>>& LintContext::manifest() {
  if (!manifest_) {
    const Config& cfg = raw();
    const netlist::SocConfig& config = soc();
    std::map<int, std::vector<std::string>> manifest;
    const auto keys = cfg.keys("bitstreams");
    if (!keys.empty()) {
      for (const std::string& key : keys) {
        try {
          const auto [row, col] = parse_tile_key(key);
          if (row < 0 || row >= config.rows || col < 0 ||
              col >= config.cols)
            throw ConfigError("tile key '" + key + "' outside the grid");
          auto& modules = manifest[row * config.cols + col];
          for (const std::string& m : split(cfg.get("bitstreams", key), ',')) {
            const std::string name{trim(m)};
            if (!name.empty()) modules.push_back(name);
          }
        } catch (const ConfigError& e) {
          throw ArtifactError("config.parse",
                              std::string("[bitstreams] ") + e.what());
        }
      }
    } else {
      for (int index = 0; index < static_cast<int>(config.tiles.size());
           ++index) {
        const netlist::TileSpec& tile =
            config.tiles[static_cast<std::size_t>(index)];
        if (tile.type == netlist::TileType::kReconf) {
          manifest[index] = tile.accelerators;
        } else if (tile.type == netlist::TileType::kCpu &&
                   tile.cpu_in_reconfigurable_partition) {
          manifest[index] = {tile.cpu_core == netlist::CpuCore::kLeon3
                                 ? netlist::ComponentLibrary::kLeon3
                                 : netlist::ComponentLibrary::kCva6};
        }
      }
    }
    manifest_ = std::move(manifest);
  }
  return *manifest_;
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

void LintContext::override_plan(ReconfPlan plan) { plan_ = std::move(plan); }

void LintContext::override_task_graph(TaskGraphSpec spec) {
  task_graph_ = std::move(spec);
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

int LintContext::line_of_section(const std::string& section) const {
  std::istringstream is(text_);
  std::string raw_line;
  int line_no = 0;
  while (std::getline(is, raw_line)) {
    ++line_no;
    std::string_view line = trim(raw_line);
    if (line.size() >= 2 && line.front() == '[' && line.back() == ']' &&
        std::string(trim(line.substr(1, line.size() - 2))) == section)
      return line_no;
  }
  return 0;
}

}  // namespace presp::lint
