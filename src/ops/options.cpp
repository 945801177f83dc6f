#include "ops/options.hpp"

#include "util/error.hpp"

namespace presp::ops {

OpsOptions OpsOptions::from_config(const Config& config) {
  OpsOptions opts;
  const std::string s = "ops";
  opts.enabled = config.get_bool_or(s, "enabled", opts.enabled);
  opts.bind = config.get_or(s, "bind", opts.bind);
  opts.port = config.get_int32(s, "port", opts.port);
  opts.workers = config.get_int32(s, "workers", opts.workers);
  opts.max_connections =
      config.get_int32(s, "max_connections", opts.max_connections);
  opts.sse_buffer_events =
      config.get_int32(s, "sse_buffer_events", opts.sse_buffer_events);
  opts.publish_interval_ms =
      config.get_int32(s, "publish_interval_ms", opts.publish_interval_ms);
  return opts;
}

void OpsOptions::validate() const {
  PRESP_REQUIRE(port >= 0 && port <= 65535,
                "ops port must be in [0, 65535]");
  PRESP_REQUIRE(workers >= 1, "ops server needs at least one worker");
  PRESP_REQUIRE(max_connections >= 1,
                "ops server needs at least one connection slot");
  PRESP_REQUIRE(sse_buffer_events >= 1,
                "ops SSE buffer must hold at least one event");
  PRESP_REQUIRE(publish_interval_ms >= 1,
                "ops publish interval must be positive");
  PRESP_REQUIRE(!bind.empty(), "ops bind address must not be empty");
}

}  // namespace presp::ops
