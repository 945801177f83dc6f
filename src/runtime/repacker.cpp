#include "runtime/repacker.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "trace/trace.hpp"
#include "util/error.hpp"

namespace presp::runtime {

namespace {

constexpr trace::Category kTrc = trace::Category::kRuntime;

std::uint32_t tile_track(int tile) {
  const auto track = static_cast<std::uint32_t>(std::max(tile, 0));
  if (trace::enabled(kTrc)) {
    trace::set_sim_track_name(track, "tile " + std::to_string(tile));
  }
  return track;
}

}  // namespace

Repacker::Repacker(soc::Soc& soc, ReconfigurationManager& manager,
                   floorplan::DynamicFloorplan& plan, RepackerOptions options)
    : soc_(soc), manager_(manager), plan_(plan),
      options_(std::move(options)), pass_done_(soc.kernel()),
      migrate_done_(soc.kernel()) {
  PRESP_REQUIRE(options_.interval_cycles > 0,
                "repack interval must be positive");
  PRESP_REQUIRE(options_.max_migrations_per_pass >= 1,
                "max_migrations_per_pass must be at least 1");
  PRESP_REQUIRE(options_.migration_budget >= 1,
                "migration_budget must be at least 1");
}

sim::Process Repacker::pass(Completion& done) {
  auto& kernel = soc_.kernel();
  ++stats_.passes;
  plan_.publish_metrics(options_.metrics_prefix);

  // Rightmost regions first: each leftward move frees cells behind the
  // next candidate, so one pass compacts monotonically.
  std::vector<std::pair<int, int>> order;  // (col_lo, tile), descending
  for (const auto& tile_ptr : soc_.reconf_tiles()) {
    const int tile = tile_ptr->index();
    if (auto region = plan_.region(tile)) {
      order.emplace_back(region->col_lo, tile);
    }
  }
  std::sort(order.begin(), order.end(), std::greater<>());

  int migrated = 0;
  int budget = options_.migration_budget;
  for (const auto& [col_lo, tile] : order) {
    (void)col_lo;
    if (migrated >= options_.max_migrations_per_pass || budget <= 0) break;
    // Invariant 2: a pinned tile is never moved.
    if (pinned(tile)) {
      ++stats_.skipped_pinned;
      continue;
    }
    // Invariant 1: an in-flight tile is never moved. The idle check plus
    // the synchronous tile-lock acquire inside repack_tile (no other
    // coroutine can run between them in the single-threaded kernel)
    // guarantee no request is active for the whole move.
    if (!manager_.tile_idle(tile)) {
      ++stats_.skipped_busy;
      continue;
    }
    const auto target = plan_.relocation_target(tile);
    if (!target) continue;

    const auto track = tile_track(tile);
    if (trace::enabled(kTrc)) {
      trace::sim_begin(kTrc, "migrate", kernel.now(), track);
    }
    // Invariant 3, chaos side: the target is chosen; the kRepackAbort
    // site may kill the migration here, before the reprogram, and the
    // floorplan must be left untouched.
    if (injector_ && injector_->on_repack_abort(tile)) {
      ++stats_.aborts;
      --budget;
      if (trace::enabled(kTrc)) {
        trace::sim_instant(kTrc, "repack-abort", kernel.now(), track);
        trace::sim_end(kTrc, "migrate", kernel.now(), track);
      }
      continue;
    }
    const std::string module = soc_.reconf_tile(tile).module();
    if (!module.empty()) {
      migrate_done_.reset();
      manager_.repack_tile(tile, module, migrate_done_);
      co_await migrate_done_.wait();
      if (!migrate_done_.ok()) {
        // Escalation already blanked + quarantined the tile; requests
        // re-route through the TileHealthRegistry. Roll the move back by
        // simply not committing it.
        ++stats_.failures;
        --budget;
        if (trace::enabled(kTrc)) {
          trace::sim_end(kTrc, "migrate", kernel.now(), track);
        }
        continue;
      }
    }
    plan_.relocate(tile, *target);
    ++migrated;
    ++stats_.migrations;
    if (trace::enabled(kTrc)) {
      trace::sim_end(kTrc, "migrate", kernel.now(), track);
    }
  }
  plan_.publish_metrics(options_.metrics_prefix);
  done.complete(RequestStatus::kOk, -1);
}

sim::Process Repacker::process() {
  auto& kernel = soc_.kernel();
  while (!stopped_) {
    co_await sim::Delay(kernel, options_.interval_cycles);
    if (stopped_) break;
    if (plan_.fragmentation().ratio() <= options_.frag_threshold) {
      plan_.publish_metrics(options_.metrics_prefix);
      continue;
    }
    pass_done_.reset();
    pass(pass_done_);
    co_await pass_done_.wait();
  }
}

}  // namespace presp::runtime
