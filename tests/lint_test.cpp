// Tests for the cross-layer static design-rule checker: the diagnostics
// engine and reporters, one passing + one failing fixture per rule, the
// fuzz-style negative paths of the configuration front-end, and clean
// runs over the shipped example configurations and the paper's Table VI
// SoCs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/reference_designs.hpp"
#include "lint/context.hpp"
#include "lint/cycle.hpp"
#include "lint/diagnostic.hpp"
#include "lint/rules.hpp"
#include "util/json.hpp"
#include "wami/accelerators.hpp"

namespace presp {
namespace {

using lint::Diagnostic;
using lint::DiagnosticEngine;
using lint::LintContext;
using lint::RuleRegistry;
using lint::Severity;

// A structurally clean 2x3 SoC with two reconfigurable tiles hosting
// characterization kernels.
const char* kCleanSoc = R"([soc]
name = clean
device = vc707
rows = 2
cols = 3

[tiles]
r0c0 = cpu
r0c1 = mem
r0c2 = aux
r1c0 = reconf:conv2d,gemm
r1c1 = reconf:fft,sort
r1c2 = empty
)";

std::vector<Diagnostic> run_lint(const std::string& text) {
  return lint::lint_config_text(text);
}

std::vector<Diagnostic> run_context(LintContext& context) {
  DiagnosticEngine engine;
  RuleRegistry::builtin().run(context, engine);
  return engine.diagnostics();
}

bool has_rule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  for (const Diagnostic& d : diags)
    if (d.rule == rule) return true;
  return false;
}

bool has_error(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags)
    if (d.severity == Severity::kError) return true;
  return false;
}

// ------------------------------------------------- diagnostics engine

TEST(DiagnosticEngineTest, DeduplicatesExactDuplicates) {
  DiagnosticEngine engine;
  const Diagnostic d{"x.y", Severity::kError, {"f", 3, "o"}, "msg", "hint"};
  EXPECT_TRUE(engine.add(d));
  EXPECT_FALSE(engine.add(d));
  EXPECT_EQ(engine.size(), 1u);
  EXPECT_TRUE(engine.has_rule("x.y"));
  EXPECT_FALSE(engine.has_rule("x.z"));
}

TEST(DiagnosticEngineTest, CountsBySeverityAndSorts) {
  DiagnosticEngine engine;
  engine.add({"b.rule", Severity::kWarning, {"b", 2, ""}, "w", ""});
  engine.add({"a.rule", Severity::kError, {"a", 9, ""}, "e", ""});
  engine.add({"c.rule", Severity::kInfo, {"a", 1, ""}, "i", ""});
  EXPECT_EQ(engine.count(Severity::kError), 1u);
  EXPECT_EQ(engine.count(Severity::kWarning), 1u);
  EXPECT_EQ(engine.count(Severity::kInfo), 1u);
  EXPECT_TRUE(engine.has_errors());
  engine.sort();
  EXPECT_EQ(engine.diagnostics()[0].rule, "c.rule");
  EXPECT_EQ(engine.diagnostics()[1].rule, "a.rule");
  EXPECT_EQ(engine.diagnostics()[2].rule, "b.rule");
}

TEST(ReporterTest, TextReportNamesRuleAndHint) {
  const std::vector<Diagnostic> diags{
      {"noc.deadlock", Severity::kError, {"a.cfg", 7, "noc"}, "cycle",
       "use XY routing"}};
  const std::string text = lint::render_text(diags);
  EXPECT_NE(text.find("a.cfg:7: error: [noc.deadlock] cycle"),
            std::string::npos);
  EXPECT_NE(text.find("hint: use XY routing"), std::string::npos);
  EXPECT_NE(text.find("1 error(s), 0 warning(s)"), std::string::npos);
}

TEST(ReporterTest, JsonRoundTrips) {
  const std::vector<Diagnostic> diags{
      {"config.parse", Severity::kError, {"x \"y\"\n.cfg", 12, "tiles.r0c0"},
       "message with \"quotes\", a\ttab and a \x01 control byte", "fix\nit"},
      {"config.unknown-section", Severity::kWarning, {"", 0, ""}, "plain",
       ""},
      {"exec.cache-size-bounds", Severity::kInfo, {"f", 1, "exec"}, "m",
       "h"}};
  const std::string json = lint::render_json(diags);
  EXPECT_NE(json.find(R"("file": "x \"y\"\n.cfg")"), std::string::npos);
  EXPECT_NE(json.find(R"(a\ttab and a \u0001 control byte")"),
            std::string::npos);
  EXPECT_NE(json.find(R"("fix_hint": "fix\nit")"), std::string::npos);
  EXPECT_NE(
      json.find("\"errors\": 1,\n  \"warnings\": 1,\n  \"infos\": 1"),
      std::string::npos);
  // The escaped strings read back verbatim through the shared reader.
  JsonReader reader(json, "diagnostics json");
  std::vector<std::string> files;
  std::vector<std::string> messages;
  reader.members([&](const std::string& key) {
    if (key != "diagnostics") return reader.skip_value();
    reader.elements([&] {
      reader.members([&](const std::string& field) {
        if (field == "file") files.push_back(reader.string());
        else if (field == "message") messages.push_back(reader.string());
        else reader.skip_value();
      });
    });
  });
  reader.finish();
  ASSERT_EQ(messages.size(), diags.size());
  ASSERT_EQ(files.size(), diags.size());
  for (std::size_t i = 0; i < diags.size(); ++i) {
    EXPECT_EQ(files[i], diags[i].loc.file);
    EXPECT_EQ(messages[i], diags[i].message);
  }
}

// ------------------------------------------------------------ catalog

TEST(RuleRegistryTest, CatalogCoversEveryLayer) {
  const RuleRegistry& registry = RuleRegistry::builtin();
  EXPECT_GE(registry.rules().size(), 12u);
  EXPECT_GE(registry.num_checks(), 12u);
  std::set<std::string> layers;
  std::set<std::string> ids;
  for (const auto& info : registry.rules()) {
    layers.insert(info.layer);
    EXPECT_TRUE(ids.insert(info.id).second) << "duplicate id " << info.id;
    EXPECT_FALSE(info.description.empty());
  }
  for (const char* layer : {"config", "netlist", "floorplan", "noc", "ops",
                            "exec", "pnr"})
    EXPECT_TRUE(layers.count(layer)) << layer;
  ASSERT_NE(registry.find("noc.deadlock"), nullptr);
  EXPECT_EQ(registry.find("noc.deadlock")->layer, "noc");
  EXPECT_EQ(registry.find("definitely.not.a.rule"), nullptr);
}

// --------------------------------------------------- config negatives
// Fuzz-style: malformed input must produce diagnostics, never crash.

TEST(ConfigLintTest, CleanConfigHasNoFindings) {
  EXPECT_TRUE(run_lint(kCleanSoc).empty());
}

TEST(ConfigLintTest, GarbageTextIsAParseDiagnostic) {
  const auto diags = run_lint("[soc\nrows = ");
  ASSERT_FALSE(diags.empty());
  EXPECT_TRUE(has_rule(diags, "config.parse"));
  EXPECT_TRUE(has_error(diags));
  EXPECT_EQ(diags.front().loc.line, 1);  // "line 1" extracted
}

TEST(ConfigLintTest, TruncatedConfigNeverCrashes) {
  std::ifstream in(std::string(PRESP_SOURCE_DIR) +
                   "/examples/configs/custom_accelerator.esp_config");
  ASSERT_TRUE(in);
  std::ostringstream text;
  text << in.rdbuf();
  const std::string full = text.str();
  for (std::size_t len = 0; len < full.size(); len += 7) {
    const auto diags = run_lint(full.substr(0, len));  // must not throw
    if (len == 0) {
      EXPECT_TRUE(has_error(diags));
    }
  }
}

TEST(ConfigLintTest, DuplicateKeysAreAParseDiagnostic) {
  const auto diags =
      run_lint("[soc]\nrows = 2\nrows = 3\ncols = 2\n");
  EXPECT_TRUE(has_rule(diags, "config.parse"));
  EXPECT_TRUE(has_error(diags));
}

TEST(ConfigLintTest, OutOfRangeTileCoordinates) {
  const auto diags = run_lint(
      "[soc]\nrows = 2\ncols = 2\n[tiles]\nr0c0 = cpu\nr0c1 = mem\n"
      "r1c0 = aux\nr9c9 = reconf:conv2d\n");
  EXPECT_TRUE(has_rule(diags, "config.parse"));
}

TEST(ConfigLintTest, HugeGridDimensionsAreRejectedNotTruncated) {
  const auto diags =
      run_lint("[soc]\nrows = 99999999999\ncols = 3\n[tiles]\nr0c0 = cpu\n");
  EXPECT_TRUE(has_rule(diags, "config.parse"));
  EXPECT_TRUE(has_error(diags));
}

TEST(ConfigLintTest, NonPositiveClockIsRejected) {
  const auto diags = run_lint(
      "[soc]\nrows = 1\ncols = 3\nclock_mhz = -78\n[tiles]\nr0c0 = cpu\n"
      "r0c1 = mem\nr0c2 = aux\n");
  EXPECT_TRUE(has_rule(diags, "config.parse"));
}

TEST(ConfigLintTest, SectionsNoToolReadsWarnAtTheirHeader) {
  // kCleanSoc ends on line 13; each appended header lands on line 15.
  // An empty header counts too, and so does [fleet], which no program
  // reads: bench_soak and perfbench build their topologies in code.
  for (const char* section :
       {"runtime", "bitstreams", "tasks", "fleet", "flet"}) {
    for (const char* body : {"", "key = 1\n"}) {
      const auto diags = run_lint(std::string(kCleanSoc) + "\n[" + section +
                                  "]\n" + body);
      ASSERT_EQ(diags.size(), 1u) << section << ": "
                                  << lint::render_text(diags);
      EXPECT_EQ(diags[0].rule, "config.unknown-section");
      EXPECT_EQ(diags[0].severity, Severity::kWarning);
      EXPECT_EQ(diags[0].loc.line, 15) << section;
      EXPECT_NE(diags[0].message.find(std::string("[") + section + "]"),
                std::string::npos);
    }
  }
  // Every section a tool reads stays silent, custom kernels included;
  // ShippedDesignsTest.EveryExampleConfigIsClean covers the examples.
  EXPECT_TRUE(run_lint(std::string(kCleanSoc) +
                       "\n[accelerator my_kernel]\n[exec]\n[ops]\n")
                  .empty());
}

TEST(ConfigLintTest, UnknownDeviceHasItsOwnRule) {
  std::string text(kCleanSoc);
  text.replace(text.find("vc707"), 5, "zynq7");
  const auto diags = run_lint(text);
  EXPECT_TRUE(has_rule(diags, "config.unknown-device"));
  EXPECT_FALSE(has_rule(diags, "config.parse"));
}

// ------------------------------------------------------ netlist rules

TEST(NetlistLintTest, UnknownAcceleratorNamesTheTile) {
  std::string text(kCleanSoc);
  text.replace(text.find("fft,sort"), 8, "no_such_kernel");
  const auto diags = run_lint(text);
  ASSERT_TRUE(has_rule(diags, "netlist.unknown-accelerator"));
  for (const Diagnostic& d : diags)
    if (d.rule == "netlist.unknown-accelerator") {
      EXPECT_EQ(d.loc.object, "tiles.r1c1");
      EXPECT_GT(d.loc.line, 0);
    }
}

TEST(NetlistLintTest, DuplicatePartitionMember) {
  std::string text(kCleanSoc);
  text.replace(text.find("conv2d,gemm"), 11, "conv2d,conv2d");
  const auto diags = run_lint(text);
  EXPECT_TRUE(has_rule(diags, "netlist.duplicate-member"));
}

TEST(NetlistLintTest, DanglingNetsAndWidths) {
  LintContext context(kCleanSoc);
  {
    // Netlist::add_net rejects undriven and zero-width nets outright (the
    // builder enforces those invariants), so the constructible dangling
    // case is a driven net that fans out to nothing.
    netlist::Netlist nl("fixture");
    const auto a = nl.add_cell({"a", netlist::CellKind::kLogic, {}, ""});
    nl.add_net({"unloaded", a, {}, 8});
    context.override_netlist(std::move(nl));
  }
  {
    // Interface contract: mem_tile_logic carries the 128-bit memory
    // socket, not the 96-bit reconfigurable-wrapper interface, and is not
    // a CPU core (those are exempt) — listing it as a partition member
    // must trip the width check.
    const netlist::SocRtl& base = context.rtl();
    auto partitions = base.partitions();
    ASSERT_FALSE(partitions.empty());
    partitions[0].modules.push_back(
        netlist::ComponentLibrary::kMemTileLogic);
    context.override_rtl(netlist::SocRtl(base.config(), base.tiles(),
                                         std::move(partitions)));
  }
  const auto diags = run_context(context);
  EXPECT_TRUE(has_rule(diags, "netlist.dangling-net"));
  EXPECT_TRUE(has_rule(diags, "netlist.width-mismatch"));
  int dangling = 0;
  for (const Diagnostic& d : diags) {
    if (d.rule == "netlist.dangling-net") ++dangling;
  }
  EXPECT_EQ(dangling, 1);
}

TEST(NetlistLintTest, SynthesizedNetlistIsClean) {
  LintContext context(kCleanSoc);
  const auto diags = run_context(context);
  EXPECT_FALSE(has_rule(diags, "netlist.dangling-net"));
  EXPECT_FALSE(has_rule(diags, "netlist.width-mismatch"));
}

// ---------------------------------------------------- floorplan rules

TEST(FloorplanLintTest, OverlappingRegions) {
  LintContext context(kCleanSoc);
  floorplan::Floorplan plan;
  plan.pblocks = {{10, 20, 0, 1}, {15, 25, 1, 2}};  // overlap at (15..20,1)
  context.override_floorplan(
      plan, {{"RT_1", {100, 0, 0, 0}}, {"RT_2", {100, 0, 0, 0}}});
  const auto diags = run_context(context);
  EXPECT_TRUE(has_rule(diags, "floorplan.region-overlap"));
}

TEST(FloorplanLintTest, RegionCapacityAndMemberFootprint) {
  LintContext context(kCleanSoc);
  floorplan::Floorplan plan;
  // Two 1x1 pblocks on CLB columns: far too small for the kernels.
  plan.pblocks = {{2, 2, 0, 0}, {4, 4, 0, 0}};
  context.override_floorplan(
      plan,
      {{"RT_1", {50'000, 0, 0, 0}}, {"RT_2", {50'000, 0, 0, 0}}});
  const auto diags = run_context(context);
  EXPECT_TRUE(has_rule(diags, "floorplan.region-capacity"));
  EXPECT_TRUE(has_rule(diags, "floorplan.member-footprint"));
}

TEST(FloorplanLintTest, IllegalAndOutOfBoundsColumns) {
  LintContext context(kCleanSoc);
  const auto device = fabric::Device::vc707();
  int clock_col = -1;
  for (int c = 0; c < device.num_columns(); ++c)
    if (device.column_type(c) == fabric::ColumnType::kClock) clock_col = c;
  ASSERT_GE(clock_col, 0);
  floorplan::Floorplan plan;
  plan.pblocks = {{clock_col, clock_col, 0, 0},
                  {device.num_columns(), device.num_columns() + 3, 0, 0}};
  context.override_floorplan(
      plan, {{"RT_1", {0, 0, 0, 0}}, {"RT_2", {0, 0, 0, 0}}});
  const auto diags = run_context(context);
  int illegal = 0;
  for (const Diagnostic& d : diags)
    if (d.rule == "floorplan.illegal-column") ++illegal;
  EXPECT_EQ(illegal, 2);  // one on the spine, one off the fabric
}

TEST(FloorplanLintTest, FeasibleDesignPlansClean) {
  const auto diags = run_lint(kCleanSoc);
  EXPECT_FALSE(has_rule(diags, "floorplan.infeasible"));
  EXPECT_FALSE(has_rule(diags, "floorplan.region-overlap"));
}

TEST(FloorplanLintTest, InfeasibleDemandReportsSingleDiagnostic) {
  // An accelerator far beyond the VC707 fabric: floorplanning must fail
  // with exactly one floorplan.infeasible diagnostic (no cascade).
  std::string text(kCleanSoc);
  text += R"(
[accelerator titan]
flow = vivado_hls
ops = mac16:4
pes = 64
buffer_luts = 9000000
)";
  text.replace(text.find("fft,sort"), 8, "titan");
  const auto diags = run_lint(text);
  int infeasible = 0;
  for (const Diagnostic& d : diags)
    if (d.rule == "floorplan.infeasible") ++infeasible;
  EXPECT_EQ(infeasible, 1);
  EXPECT_FALSE(has_rule(diags, "config.parse"));
}

TEST(FloorplanLintTest, IcapUnreachableOnBrokenRoutes) {
  LintContext context(kCleanSoc);
  // Copy the valid all-pairs table, then break the route from the first
  // reconfigurable tile (index 3 = r1c0) to the aux tile (index 2).
  lint::RouteTable table = context.routes();
  table.routes[3 * table.num_tiles() + 2] = {3, 4};  // never reaches 2
  context.override_routes(std::move(table));
  const auto diags = run_context(context);
  ASSERT_TRUE(has_rule(diags, "floorplan.icap-unreachable"));
  for (const Diagnostic& d : diags)
    if (d.rule == "floorplan.icap-unreachable") {
      EXPECT_EQ(d.loc.object, "tiles.r1c0");
    }
}

// ---------------------------------------------------- shared cycle DFS

TEST(CycleTest, FindsClosedWalkAndHandlesAcyclic) {
  // 0 -> 1 -> 2 -> 0 plus an acyclic tail.
  const std::vector<std::vector<int>> cyclic{{1}, {2}, {0}, {0}};
  const std::vector<int> cycle = lint::find_cycle(cyclic);
  ASSERT_GE(cycle.size(), 3u);
  EXPECT_EQ(cycle.front(), cycle.back());

  const std::vector<std::vector<int>> acyclic{{1}, {2}, {}};
  EXPECT_TRUE(lint::find_cycle(acyclic).empty());

  const std::vector<std::vector<int>> self{{0}};
  const std::vector<int> loop = lint::find_cycle(self);
  ASSERT_EQ(loop.size(), 2u);
  EXPECT_EQ(loop[0], loop[1]);
}

// ---------------------------------------------------------- noc rules

TEST(NocLintTest, XyRoutingIsDeadlockFree) {
  const auto diags = run_lint(kCleanSoc);
  EXPECT_FALSE(has_rule(diags, "noc.deadlock"));
  EXPECT_FALSE(has_rule(diags, "noc.queue-gating"));
}

TEST(NocLintTest, CyclicRoutesAreFlaggedAsDeadlock) {
  LintContext context(kCleanSoc);
  lint::RouteTable table = context.routes();
  // Four routes on the 2x3 mesh whose link dependencies form a ring:
  // (0->1)->(1->4), (1->4)->(4->3), (4->3)->(3->0), (3->0)->(0->1).
  const int t = table.num_tiles();
  table.routes[0 * t + 4] = {0, 1, 4};
  table.routes[1 * t + 3] = {1, 4, 3};
  table.routes[4 * t + 0] = {4, 3, 0};
  table.routes[3 * t + 1] = {3, 0, 1};
  context.override_routes(std::move(table));
  const auto diags = run_context(context);
  ASSERT_TRUE(has_rule(diags, "noc.deadlock"));
  for (const Diagnostic& d : diags) {
    if (d.rule != "noc.deadlock") continue;
    EXPECT_EQ(d.message,
              "the route function admits a channel dependency cycle: "
              "(0->1) -> (1->4) -> (4->3) -> (3->0) -> (0->1)");
  }
}

TEST(NocLintTest, LongDeadlockCycleIsTruncatedAfterNineLinks) {
  LintContext context(kCleanSoc);
  lint::RouteTable table = context.routes();
  // An 11-link ring through every tile of the 2x3 mesh, built from
  // two-hop routes: 0-1-2-3-4-5-0-2-4-1-3-0.
  const int t = table.num_tiles();
  const std::vector<std::vector<int>> ring{
      {0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {4, 5, 0}, {5, 0, 2},
      {0, 2, 4}, {2, 4, 1}, {4, 1, 3}, {1, 3, 0}, {3, 0, 1}};
  for (const auto& route : ring)
    table.routes[static_cast<std::size_t>(route.front() * t +
                                          route.back())] = route;
  context.override_routes(std::move(table));
  const auto diags = run_context(context);
  ASSERT_TRUE(has_rule(diags, "noc.deadlock"));
  for (const Diagnostic& d : diags) {
    if (d.rule != "noc.deadlock") continue;
    EXPECT_EQ(d.message,
              "the route function admits a channel dependency cycle: "
              "(0->1) -> (1->2) -> (2->3) -> (3->4) -> (4->5) -> (5->0) "
              "-> (0->2) -> (2->4) -> (4->1) -> ... -> (0->1)");
  }
}

TEST(NocLintTest, MissingDecouplerBreaksQueueGating) {
  LintContext context(kCleanSoc);
  {
    // Re-elaborate, then strip the PR decoupler from the first
    // reconfigurable tile's static socket.
    auto config = netlist::SocConfig::parse(kCleanSoc);
    auto lib = core::characterization_library();
    auto rtl = netlist::elaborate(config, lib);
    auto tiles = rtl.tiles();
    for (auto& tile : tiles) {
      auto& blocks = tile.static_blocks;
      blocks.erase(std::remove(blocks.begin(), blocks.end(),
                               netlist::ComponentLibrary::kDecoupler),
                   blocks.end());
    }
    context.override_rtl(
        netlist::SocRtl(config, std::move(tiles), rtl.partitions()));
  }
  const auto diags = run_context(context);
  ASSERT_TRUE(has_rule(diags, "noc.queue-gating"));
}

// ---------------------------------------------------------- ops rules

std::string with_ops(const std::string& section) {
  return std::string(kCleanSoc) + "\n[ops]\n" + section;
}

TEST(OpsLintTest, EnabledLoopbackSectionIsClean) {
  const auto diags = run_lint(with_ops(
      "enabled = true\nport = 9180\nworkers = 4\nmax_connections = 16\n"));
  for (const Diagnostic& d : diags)
    EXPECT_NE(d.rule.substr(0, 4), "ops.") << d.rule;
}

TEST(OpsLintTest, NoOpsSectionMeansNoOpsFindings) {
  for (const Diagnostic& d : run_lint(kCleanSoc))
    EXPECT_NE(d.rule.substr(0, 4), "ops.");
}

TEST(OpsLintTest, PortRangeAndPrivilegedPorts) {
  const auto range = run_lint(with_ops("enabled = true\nport = 99999\n"));
  ASSERT_TRUE(has_rule(range, "ops.port"));
  EXPECT_TRUE(has_error(range));

  // Privileged ports need root; warn, don't block.
  const auto privileged =
      run_lint(with_ops("enabled = true\nport = 443\n"));
  ASSERT_TRUE(has_rule(privileged, "ops.port"));
  EXPECT_FALSE(has_error(privileged));
}

TEST(OpsLintTest, BindMustBeDottedQuad) {
  const auto diags =
      run_lint(with_ops("enabled = true\nbind = localhost\n"));
  ASSERT_TRUE(has_rule(diags, "ops.port"));
  EXPECT_TRUE(has_error(diags));
}

TEST(OpsLintTest, SseBoundsMisconfigurations) {
  const auto buffer =
      run_lint(with_ops("enabled = true\nsse_buffer_events = 0\n"));
  EXPECT_TRUE(has_rule(buffer, "ops.sse-bounds"));
  EXPECT_TRUE(has_error(buffer));

  const auto interval =
      run_lint(with_ops("enabled = true\npublish_interval_ms = 0\n"));
  EXPECT_TRUE(has_rule(interval, "ops.sse-bounds"));
  EXPECT_TRUE(has_error(interval));

  // Connections far beyond the worker pool: warning only (the shipped
  // 16:4 ratio is the accepted ceiling and stays clean).
  const auto starved = run_lint(
      with_ops("enabled = true\nworkers = 2\nmax_connections = 32\n"));
  ASSERT_TRUE(has_rule(starved, "ops.sse-bounds"));
  EXPECT_FALSE(has_error(starved));
}

TEST(OpsLintTest, DisabledSectionAndOffLoopbackBindWarn) {
  const auto disabled = run_lint(with_ops("port = 9180\n"));
  ASSERT_TRUE(has_rule(disabled, "ops.disabled-by-default"));
  EXPECT_FALSE(has_error(disabled));

  const auto exposed =
      run_lint(with_ops("enabled = true\nbind = 0.0.0.0\n"));
  ASSERT_TRUE(has_rule(exposed, "ops.disabled-by-default"));
  EXPECT_FALSE(has_error(exposed));

  const auto malformed = run_lint(with_ops("enabled = maybe\n"));
  ASSERT_TRUE(has_rule(malformed, "ops.disabled-by-default"));
  EXPECT_TRUE(has_error(malformed));
}

std::string with_exec(const std::string& section) {
  return std::string(kCleanSoc) + "\n[exec]\n" + section;
}

TEST(ExecLintTest, CleanCacheSectionHasNoFindings) {
  const std::string dir = ::testing::TempDir() + "/lint_cache_probe";
  const auto diags = run_lint(with_exec(
      "cache_dir = " + dir + "\ncache_max_bytes = 268435456\n"));
  EXPECT_TRUE(diags.empty());
}

TEST(ExecLintTest, EmptyCacheDirIsAnError) {
  const auto diags = run_lint(with_exec("cache_dir =\n"));
  ASSERT_TRUE(has_rule(diags, "exec.cache-dir-writable"));
  EXPECT_TRUE(has_error(diags));
}

TEST(ExecLintTest, CacheDirUnderAPlainFileIsAnError) {
  // The nearest existing ancestor is a regular file, so the flow could
  // never create the directory.
  const std::string file = ::testing::TempDir() + "/lint_cache_blocker";
  std::ofstream(file) << "not a directory\n";
  const auto diags =
      run_lint(with_exec("cache_dir = " + file + "/cache\n"));
  ASSERT_TRUE(has_rule(diags, "exec.cache-dir-writable"));
  for (const Diagnostic& d : diags)
    if (d.rule == "exec.cache-dir-writable") {
      EXPECT_NE(d.message.find("not a directory"), std::string::npos);
    }
}

TEST(ExecLintTest, TinyCacheCapIsAnError) {
  const std::string dir = ::testing::TempDir() + "/lint_cache_probe";
  const auto diags = run_lint(with_exec(
      "cache_dir = " + dir + "\ncache_max_bytes = 4096\n"));
  ASSERT_TRUE(has_rule(diags, "exec.cache-size-bounds"));
  EXPECT_TRUE(has_error(diags));
}

TEST(ExecLintTest, NonPositiveCapMeansUnboundedAndIsClean) {
  const std::string dir = ::testing::TempDir() + "/lint_cache_probe";
  const auto diags = run_lint(with_exec(
      "cache_dir = " + dir + "\ncache_max_bytes = 0\n"));
  EXPECT_FALSE(has_rule(diags, "exec.cache-size-bounds"));
}

TEST(ExecLintTest, MalformedCapIsAnError) {
  const std::string dir = ::testing::TempDir() + "/lint_cache_probe";
  const auto diags = run_lint(with_exec(
      "cache_dir = " + dir + "\ncache_max_bytes = lots\n"));
  ASSERT_TRUE(has_rule(diags, "exec.cache-size-bounds"));
}

TEST(ExecLintTest, CapWithoutCacheDirIsAWarning) {
  const auto diags = run_lint(with_exec("cache_max_bytes = 268435456\n"));
  ASSERT_TRUE(has_rule(diags, "exec.cache-size-bounds"));
  EXPECT_FALSE(has_error(diags));
  for (const Diagnostic& d : diags)
    if (d.rule == "exec.cache-size-bounds") {
      EXPECT_EQ(d.severity, Severity::kWarning);
    }
}

// --------------------------------------- shipped designs stay clean

TEST(ShippedDesignsTest, CharacterizationAndTable6SocsAreClean) {
  for (int i = 1; i <= 4; ++i) {
    const auto soc = core::characterization_soc(i);
    EXPECT_TRUE(run_lint(soc.to_config_text()).empty()) << soc.name;
  }
  for (const char which : {'X', 'Y', 'Z'}) {
    const auto soc = wami::table6_soc(which);
    const auto diags = run_lint(soc.to_config_text());
    EXPECT_FALSE(has_error(diags)) << soc.name;
    EXPECT_TRUE(diags.empty()) << soc.name;
  }
}

TEST(ShippedDesignsTest, EveryExampleConfigIsClean) {
  const std::filesystem::path dir =
      std::filesystem::path(PRESP_SOURCE_DIR) / "examples" / "configs";
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  int checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".esp_config") continue;
    LintContext context = LintContext::from_file(entry.path().string());
    const auto diags = run_context(context);
    EXPECT_TRUE(diags.empty())
        << entry.path().filename() << ": " << lint::render_text(diags);
    ++checked;
  }
  EXPECT_GE(checked, 6);
}

TEST(ShippedDesignsTest, SeededViolationExitsNonZeroThroughJson) {
  // End-to-end shape of the CLI contract: a seeded violation serializes
  // through JSON with its rule id and error count intact.
  std::string text(kCleanSoc);
  text.replace(text.find("fft,sort"), 8, "no_such_kernel");
  const auto diags = run_lint(text);
  ASSERT_TRUE(has_rule(diags, "netlist.unknown-accelerator"));
  const std::size_t errors = static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(), [](const Diagnostic& d) {
        return d.severity == Severity::kError;
      }));
  ASSERT_GT(errors, 0u);
  const std::string json = lint::render_json(diags);
  EXPECT_NE(json.find(R"("rule": "netlist.unknown-accelerator")"),
            std::string::npos);
  EXPECT_NE(json.find("\"errors\": " + std::to_string(errors) + ",\n"),
            std::string::npos);
}

// ------------------------------------------------------- SARIF output

TEST(SarifReportTest, SeededViolationRendersSarif) {
  std::string text(kCleanSoc);
  text.replace(text.find("fft,sort"), 8, "no_such_kernel");
  const auto diags = run_lint(text);
  ASSERT_TRUE(has_error(diags));
  const std::string sarif = lint::render_sarif(diags);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"presp-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"netlist.unknown-accelerator\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
}

TEST(SarifReportTest, SeverityMappingAndProperties) {
  const std::vector<Diagnostic> diags{
      {"a.error", Severity::kError, {"f.cfg", 3, "obj"}, "broken", "fix it"},
      {"b.warn", Severity::kWarning, {"f.cfg", 0, ""}, "iffy", ""},
      {"c.info", Severity::kInfo, {"", 0, ""}, "fyi", ""},
  };
  const std::string sarif = lint::render_sarif(diags, "mytool");
  EXPECT_NE(sarif.find("\"name\": \"mytool\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"note\""), std::string::npos);
  // Line 3 appears as a region; line 0 must not produce a region.
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  EXPECT_EQ(sarif.find("\"startLine\": 0"), std::string::npos);
  EXPECT_NE(sarif.find("\"fixHint\": \"fix it\""), std::string::npos);
  // Unlocated diagnostics anchor to the <memory> artifact.
  EXPECT_NE(sarif.find("\"uri\": \"<memory>\""), std::string::npos);
}

// ------------------------------------------- floorplan artifact lint

floorplan::FloorplanArtifact planned_artifact() {
  const auto device = fabric::Device::vc707();
  const floorplan::Floorplanner planner(device);
  floorplan::FloorplanArtifact artifact;
  artifact.design = "unit";
  artifact.device = "vc707";
  artifact.requests = {{"RT_1", {20'000, 20'000, 16, 32}},
                       {"RT_2", {15'000, 15'000, 8, 16}}};
  artifact.plan =
      planner.plan(artifact.requests, {40'000, 40'000, 64, 64}, {});
  return artifact;
}

TEST(FloorplanArtifactTest, JsonRoundTripPreservesEverything) {
  auto artifact = planned_artifact();
  artifact.design = "a\tb\rc\x01" "d";
  const std::string json = floorplan::render_floorplan_json(artifact);
  // No raw byte below 0x20 may appear inside a string.
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (in_string && json[i] == '\\') {
      ++i;
    } else if (json[i] == '"') {
      in_string = !in_string;
    } else if (in_string) {
      EXPECT_GE(static_cast<unsigned char>(json[i]), 0x20) << "offset " << i;
    }
  }
  const auto parsed = floorplan::parse_floorplan_json(json);
  EXPECT_EQ(parsed.design, artifact.design);
  EXPECT_EQ(parsed.device, artifact.device);
  ASSERT_EQ(parsed.requests.size(), artifact.requests.size());
  ASSERT_EQ(parsed.plan.pblocks.size(), artifact.plan.pblocks.size());
  for (std::size_t i = 0; i < parsed.requests.size(); ++i) {
    EXPECT_EQ(parsed.requests[i].name, artifact.requests[i].name);
    EXPECT_EQ(parsed.requests[i].demand.luts,
              artifact.requests[i].demand.luts);
    EXPECT_EQ(parsed.plan.pblocks[i].col_lo,
              artifact.plan.pblocks[i].col_lo);
    EXPECT_EQ(parsed.plan.pblocks[i].row_hi,
              artifact.plan.pblocks[i].row_hi);
  }
  EXPECT_EQ(parsed.plan.static_capacity.luts,
            artifact.plan.static_capacity.luts);
}

TEST(FloorplanArtifactTest, MalformedJsonThrows) {
  EXPECT_THROW(floorplan::parse_floorplan_json("{\"design\": }"),
               ConfigError);
  EXPECT_THROW(floorplan::parse_floorplan_json("[]"), ConfigError);
  // A partition missing its pblock leaves counts consistent (both sides
  // get a default), but unknown fields must be rejected.
  EXPECT_THROW(
      floorplan::parse_floorplan_json("{\"bogus\": 1}"), ConfigError);
  // Integer fields reject what their type cannot hold.
  EXPECT_THROW(floorplan::parse_floorplan_json(
                   R"({"partitions":[{"name":"a","pblock":{"col_lo":1e300,)"
                   R"("col_hi":1,"row_lo":0,"row_hi":1},)"
                   R"("demand":{"luts":1e30}}]})"),
               ConfigError);
  EXPECT_THROW(floorplan::parse_floorplan_json(
                   R"({"static_capacity":{"luts":1e30}})"),
               ConfigError);
  EXPECT_THROW(floorplan::parse_floorplan_json(
                   R"({"partitions":[{"pblock":{"col_lo":3000000000}}]})"),
               ConfigError);
  EXPECT_THROW(
      floorplan::parse_floorplan_json(R"({"design":"x"} trailing garbage)"),
      ConfigError);
  EXPECT_EQ(
      floorplan::parse_floorplan_json(R"({"design":"a\u0041b"})").design,
      "aAb");
}

TEST(FloorplanArtifactLintTest, PlannedArtifactLintsClean) {
  const auto diags = lint::lint_floorplan_artifact(planned_artifact());
  EXPECT_TRUE(diags.empty()) << lint::render_text(diags);
}

TEST(FloorplanArtifactLintTest, SeededViolationsAreDetected) {
  auto artifact = planned_artifact();
  // Slam both pblocks onto the same rectangle: overlap, and (rectangle
  // sized for RT_2) a capacity shortfall for RT_1's larger demand.
  artifact.plan.pblocks[0] = artifact.plan.pblocks[1];
  const auto diags = lint::lint_floorplan_artifact(artifact, "bad.json");
  EXPECT_TRUE(has_rule(diags, "floorplan.region-overlap"));
  for (const Diagnostic& d : diags) EXPECT_EQ(d.loc.file, "bad.json");
}

TEST(FloorplanArtifactLintTest, OffFabricPblockIsIllegalColumn) {
  auto artifact = planned_artifact();
  artifact.plan.pblocks[0].col_hi = 100'000;
  const auto diags = lint::lint_floorplan_artifact(artifact);
  EXPECT_TRUE(has_rule(diags, "floorplan.illegal-column"));
}

TEST(FloorplanArtifactLintTest, UnknownDeviceIsReportedNotFatal) {
  auto artifact = planned_artifact();
  artifact.device = "zynq7000";
  const auto diags = lint::lint_floorplan_artifact(artifact);
  EXPECT_TRUE(has_rule(diags, "config.unknown-device"));
  // Device-independent checks still ran (no overlap in the good plan).
  EXPECT_FALSE(has_rule(diags, "floorplan.region-overlap"));
}

}  // namespace
}  // namespace presp
