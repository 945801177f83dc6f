#include "ops/sources.hpp"

#include "fleet/breaker.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"

namespace presp::ops {

std::string fleet_health_json(const fleet::FleetOpsSnapshot& snap) {
  std::string out = "{\"now\":" + std::to_string(snap.now);
  out += ",\"submitted\":" + std::to_string(snap.stats.submitted);
  out += ",\"completed\":" + std::to_string(snap.stats.completed());
  out += ",\"shed\":" + std::to_string(snap.stats.shed_total);
  out += ",\"shed_by_reason\":{";
  for (int e = 1; e < fleet::kNumFleetErrors; ++e) {
    if (e > 1) out += ',';
    out += '"';
    out += fleet::to_string(static_cast<fleet::FleetError>(e));
    out += "\":" + std::to_string(snap.stats.shed_by_reason[e]);
  }
  out += "},\"queued\":{";
  for (int c = 0; c < fleet::kNumQosClasses; ++c) {
    if (c > 0) out += ',';
    out += '"';
    out += fleet::to_string(static_cast<fleet::QosClass>(c));
    out += "\":" + std::to_string(snap.queued[c]);
  }
  out += "},\"shards\":[";
  for (std::size_t s = 0; s < snap.shards.size(); ++s) {
    const auto& shard = snap.shards[s];
    if (s > 0) out += ',';
    out += "{\"shard\":" + std::to_string(s);
    out += ",\"breaker\":\"";
    out += fleet::to_string(shard.breaker);
    out += "\",\"inflight\":" + std::to_string(shard.inflight);
    out += ",\"tiles\":{";
    bool first = true;
    for (const auto& [tile, health] : shard.tile_health) {
      if (!first) out += ',';
      first = false;
      out += '"' + std::to_string(tile) + "\":{\"health\":\"";
      out += runtime::to_string(health);
      out += '"';
      const auto it = shard.tile_breakers.find(tile);
      if (it != shard.tile_breakers.end()) {
        out += ",\"breaker\":\"";
        out += fleet::to_string(it->second);
        out += '"';
      }
      out += '}';
    }
    // Tile breakers can exist for tiles the health registry never saw
    // (forced open before any recorded fault).
    for (const auto& [tile, state] : shard.tile_breakers) {
      if (shard.tile_health.count(tile) != 0) continue;
      if (!first) out += ',';
      first = false;
      out += '"' + std::to_string(tile) + "\":{\"breaker\":\"";
      out += fleet::to_string(state);
      out += "\"}";
    }
    out += "}}";
  }
  out += "],\"tenants\":{";
  bool first = true;
  for (const auto& [tenant, tokens] : snap.tenant_tokens) {
    if (!first) out += ',';
    first = false;
    out += '"' + std::to_string(tenant) + "\":";
    append_json_number(out, tokens);
  }
  out += "}}";
  return out;
}

std::string tile_health_json(const std::map<int, runtime::TileHealth>& tiles,
                             const runtime::TileHealthStats& stats) {
  std::string out = "{\"tiles\":{";
  bool first = true;
  for (const auto& [tile, health] : tiles) {
    if (!first) out += ',';
    first = false;
    out += '"' + std::to_string(tile) + "\":\"";
    out += runtime::to_string(health);
    out += '"';
  }
  out += "},\"failures\":" + std::to_string(stats.failures);
  out += ",\"quarantines\":" + std::to_string(stats.quarantines);
  out += ",\"rehabilitations\":" + std::to_string(stats.rehabilitations);
  out += "}";
  return out;
}

std::string trace_summary_json(std::size_t top_n) {
  if (!trace::active()) return "{\"active\":false}";
  const trace::TraceReport report = trace::TraceSession::instance().snapshot();
  const trace::ParsedTrace parsed =
      trace::parse_chrome_trace(trace::chrome_trace_json(report));
  const trace::TraceSummary summary = trace::summarize(parsed, top_n);
  std::string out = "{\"active\":true";
  out += ",\"total_events\":" + std::to_string(summary.total_events);
  out += ",\"spans\":" + std::to_string(summary.spans);
  out += ",\"instants\":" + std::to_string(summary.instants);
  out += ",\"counters\":" + std::to_string(summary.counters);
  out += ",\"dropped\":" + std::to_string(summary.dropped);
  out += ",\"host_extent_us\":";
  append_json_number(out, summary.host_extent_us);
  out += ",\"sim_extent_us\":";
  append_json_number(out, summary.sim_extent_us);
  out += ",\"categories\":{";
  for (std::size_t i = 0; i < summary.categories.size(); ++i) {
    if (i > 0) out += ',';
    append_json_string(out, summary.categories[i].cat);
    out += ":" + std::to_string(summary.categories[i].events);
  }
  out += "},\"top_spans\":[";
  for (std::size_t i = 0; i < summary.top_spans.size(); ++i) {
    const trace::SpanStat& span = summary.top_spans[i];
    if (i > 0) out += ',';
    out += "{\"name\":";
    append_json_string(out, span.name);
    out += ",\"cat\":";
    append_json_string(out, span.cat);
    out += ",\"count\":" + std::to_string(span.count);
    out += ",\"total_us\":";
    append_json_number(out, span.total_us);
    out += ",\"self_us\":";
    append_json_number(out, span.self_us);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string metrics_delta_json(const trace::MetricsSnapshot& prev,
                               const trace::MetricsSnapshot& cur) {
  std::string counters;
  for (const auto& [name, value] : cur.counters) {
    const auto it = prev.counters.find(name);
    const std::uint64_t before = it == prev.counters.end() ? 0 : it->second;
    if (value == before) continue;
    if (!counters.empty()) counters += ',';
    append_json_string(counters, name);
    counters += ':' + std::to_string(value - before);
  }
  std::string gauges;
  for (const auto& [name, sample] : cur.gauges) {
    const auto it = prev.gauges.find(name);
    if (it != prev.gauges.end() && it->second.value == sample.value) continue;
    if (!gauges.empty()) gauges += ',';
    append_json_string(gauges, name);
    gauges += ':';
    append_json_number(gauges, sample.value);
  }
  if (counters.empty() && gauges.empty()) return "{}";
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges + "}}";
}

}  // namespace presp::ops
