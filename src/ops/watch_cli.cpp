#include "ops/watch_cli.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "ops/server.hpp"
#include "ops/watch.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace presp::ops {

namespace {

int usage(const std::string& program) {
  std::fprintf(stderr,
               "usage: %s --watch [--poll-ms <n>] [--max-polls <n>]\n"
               "       %*s [--ops-port <n>] [--watch-log <file>]\n"
               "       %*s <config.esp_config>...\n",
               program.c_str(), static_cast<int>(program.size()), "",
               static_cast<int>(program.size()), "");
  return 2;
}

bool parse_int(const std::string& text, int* out) {
  try {
    std::size_t pos = 0;
    const int value = std::stoi(text, &pos);
    if (pos != text.size()) return false;
    *out = value;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::string report_json(const LintWatcher::Report& report) {
  std::string out = "{\"path\":";
  append_json_string(out, report.path);
  out += ",\"errors\":" + std::to_string(report.errors);
  out += ",\"warnings\":" + std::to_string(report.warnings);
  out += ",\"findings\":" + report.findings_json + "}";
  return out;
}

}  // namespace

int run_watch_cli(const std::vector<std::string>& args,
                  const std::string& program) {
  int poll_ms = 200;
  int max_polls = 0;
  int ops_port = -1;  // < 0: no server
  std::string watch_log;
  std::vector<std::string> configs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--watch") {
      continue;
    } else if (arg == "--poll-ms" && i + 1 < args.size()) {
      if (!parse_int(args[++i], &poll_ms) || poll_ms < 1)
        return usage(program);
    } else if (arg == "--max-polls" && i + 1 < args.size()) {
      if (!parse_int(args[++i], &max_polls) || max_polls < 0)
        return usage(program);
    } else if (arg == "--ops-port" && i + 1 < args.size()) {
      if (!parse_int(args[++i], &ops_port) || ops_port < 0)
        return usage(program);
    } else if (arg == "--watch-log" && i + 1 < args.size()) {
      watch_log = args[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      configs.push_back(arg);
    } else {
      return usage(program);
    }
  }
  if (configs.empty()) return usage(program);

  std::unique_ptr<OpsServer> server;
  if (ops_port >= 0) {
    OpsOptions options;
    options.enabled = true;
    options.bind = "127.0.0.1";
    options.port = ops_port;
    // Findings should reach /events subscribers within roughly one poll
    // interval, so pump at least that often.
    options.publish_interval_ms = poll_ms < 50 ? poll_ms : 50;
    try {
      server = std::make_unique<OpsServer>(options);
      server->start();
    } catch (const Error& e) {
      std::fprintf(stderr, "%s: cannot start ops server: %s\n",
                   program.c_str(), e.what());
      return 2;
    }
    std::printf("watching %zu config(s); ops server on 127.0.0.1:%d\n",
                configs.size(), server->port());
  } else {
    std::printf("watching %zu config(s)\n", configs.size());
  }
  std::fflush(stdout);

  auto on_report = [&](const LintWatcher::Report& report) {
    std::printf("[watch] %s: %zu error(s), %zu warning(s)\n",
                report.path.c_str(), report.errors, report.warnings);
    std::fflush(stdout);
    const std::string line = report_json(report);
    if (!watch_log.empty()) {
      std::ofstream log(watch_log, std::ios::app);
      log << line << "\n";
    }
    if (server) server->publish("lint", line);
  };
  LintWatcher watcher(configs, on_report);
  watcher.lint_all();

  for (int poll = 0; max_polls == 0 || poll < max_polls; ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    watcher.poll_once();
  }

  if (server) {
    // Let the pump drain any just-published report before tearing down
    // the SSE streams mid-event.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        2 * server->options().publish_interval_ms));
    server->stop();
  }
  return 0;
}

}  // namespace presp::ops
