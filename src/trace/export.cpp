#include "trace/export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace presp::trace {

namespace {

void append_us(std::string& out, double us) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  out += buf;
}

void append_metadata(std::string& out, const char* kind, int pid, int tid,
                     const std::string& name) {
  out += R"({"ph":"M","pid":)";
  out += std::to_string(pid);
  out += ",\"tid\":";
  out += std::to_string(tid);
  out += ",\"name\":\"";
  out += kind;
  out += R"(","args":{"name":)";
  append_json_string(out, name);
  out += "}}";
}

}  // namespace

std::string chrome_trace_json(const TraceReport& report) {
  std::string out;
  out.reserve(128 + report.events.size() * 96);
  out += "{\"traceEvents\":[\n";

  append_metadata(out, "process_name", kHostPid, 0, "host (wall clock)");
  out += ",\n";
  append_metadata(out, "process_name", kSimPid, 0, "sim (virtual time)");
  for (std::size_t tid = 0; tid < report.thread_names.size(); ++tid) {
    if (report.thread_names[tid].empty()) continue;
    out += ",\n";
    append_metadata(out, "thread_name", kHostPid, static_cast<int>(tid),
                    report.thread_names[tid]);
  }
  for (const auto& [track, name] : report.sim_track_names) {
    out += ",\n";
    append_metadata(out, "thread_name", kSimPid, static_cast<int>(track),
                    name);
  }

  const double mhz =
      report.config.sim_clock_mhz > 0.0 ? report.config.sim_clock_mhz : 1.0;
  for (const auto& event : report.events) {
    out += ",\n";
    out += "{\"ph\":\"";
    switch (event.phase) {
      case Phase::kBegin: out += 'B'; break;
      case Phase::kEnd: out += 'E'; break;
      case Phase::kInstant: out += 'i'; break;
      case Phase::kCounter: out += 'C'; break;
    }
    out += "\",\"pid\":";
    const bool sim = event.clock == ClockDomain::kSim;
    out += std::to_string(sim ? kSimPid : kHostPid);
    out += ",\"tid\":";
    out += std::to_string(sim ? event.track : event.tid);
    out += ",\"ts\":";
    append_us(out, sim ? static_cast<double>(event.timestamp) / mhz
                       : static_cast<double>(event.timestamp) / 1000.0);
    out += ",\"name\":";
    append_json_string(out, event.name);
    out += ",\"cat\":\"";
    out += to_string(event.category);
    out += '"';
    if (event.phase == Phase::kInstant) out += ",\"s\":\"t\"";
    if (event.phase == Phase::kCounter || event.value != 0.0) {
      out += ",\"args\":{\"value\":";
      append_json_number(out, event.value);
      out += '}';
    }
    out += '}';
  }

  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":";
  out += std::to_string(report.dropped);
  out += ",\"simClockMhz\":";
  append_json_number(out, report.config.sim_clock_mhz);
  out += "}}\n";
  return out;
}

void write_chrome_trace(const TraceReport& report, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw Error("cannot open trace output file: " + path);
  const std::string json = chrome_trace_json(report);
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  if (!file) throw Error("failed to write trace output file: " + path);
}

// ---------------------------------------------------------------- reader

namespace {

int read_int(JsonReader& reader) {
  return static_cast<int>(reader.integer(std::numeric_limits<int>::min(),
                                         std::numeric_limits<int>::max()));
}

void parse_event(JsonReader& reader, ParsedTrace& out) {
  ParsedEvent event;
  std::string arg_name;
  reader.members([&](const std::string& key) {
    if (key == "name") {
      event.name = reader.string();
    } else if (key == "cat") {
      event.cat = reader.string();
    } else if (key == "ph") {
      event.ph = reader.string();
    } else if (key == "ts") {
      event.ts_us = reader.number();
    } else if (key == "pid") {
      event.pid = read_int(reader);
    } else if (key == "tid") {
      event.tid = read_int(reader);
    } else if (key == "args") {
      reader.members([&](const std::string& arg_key) {
        if (arg_key == "name") {
          arg_name = reader.string();
        } else if (arg_key == "value") {
          // The writer spells a non-finite counter value as null.
          event.value = reader.consume_null()
                            ? std::numeric_limits<double>::quiet_NaN()
                            : reader.number();
        } else {
          reader.skip_value();
        }
      });
    } else {
      reader.skip_value();
    }
  });
  if (event.ph == "M") {
    if (event.name == "process_name") {
      out.process_names[event.pid] = arg_name;
    } else if (event.name == "thread_name") {
      out.track_names[{event.pid, event.tid}] = arg_name;
    }
    return;
  }
  out.events.push_back(std::move(event));
}

}  // namespace

ParsedTrace parse_chrome_trace(const std::string& text) {
  JsonReader reader(text, "trace json");
  ParsedTrace out;
  reader.members([&](const std::string& key) {
    if (key == "traceEvents") {
      reader.elements([&] { parse_event(reader, out); });
    } else if (key == "otherData") {
      reader.members([&](const std::string& other_key) {
        if (other_key == "droppedEvents") {
          out.dropped = static_cast<std::uint64_t>(reader.integer(
              0, std::numeric_limits<std::int64_t>::max()));
        } else if (other_key == "simClockMhz") {
          out.sim_clock_mhz = reader.number();
        } else {
          reader.skip_value();
        }
      });
    } else {
      reader.skip_value();
    }
  });
  reader.finish();
  return out;
}

ParsedTrace read_chrome_trace(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw Error("cannot open trace file: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_chrome_trace(buffer.str());
}

// ------------------------------------------------------------- summarize

namespace {

struct OpenFrame {
  std::string name;
  std::string cat;
  double start_us = 0.0;
  double child_us = 0.0;
};

}  // namespace

TraceSummary summarize(const ParsedTrace& trace, std::size_t top_n) {
  TraceSummary summary;
  summary.total_events = trace.events.size();
  summary.dropped = trace.dropped;

  std::map<std::pair<int, int>, std::vector<OpenFrame>> stacks;
  std::map<std::pair<int, std::string>, SpanStat> spans;
  std::map<std::string, CategoryStat> categories;

  for (const auto& event : trace.events) {
    auto& category = categories[event.cat];
    category.cat = event.cat;
    ++category.events;
    double& extent =
        event.pid == kSimPid ? summary.sim_extent_us : summary.host_extent_us;
    extent = std::max(extent, event.ts_us);

    if (event.ph == "B") {
      stacks[{event.pid, event.tid}].push_back(
          OpenFrame{event.name, event.cat, event.ts_us, 0.0});
    } else if (event.ph == "E") {
      auto& stack = stacks[{event.pid, event.tid}];
      if (stack.empty() || stack.back().name != event.name) {
        ++summary.unmatched;
        continue;
      }
      const OpenFrame frame = stack.back();
      stack.pop_back();
      const double duration = event.ts_us - frame.start_us;
      ++summary.spans;
      categories[frame.cat].span_us += duration;
      if (!stack.empty()) stack.back().child_us += duration;
      auto& stat = spans[{event.pid, frame.name}];
      stat.name = frame.name;
      stat.cat = frame.cat;
      stat.pid = event.pid;
      ++stat.count;
      stat.total_us += duration;
      stat.self_us += duration - frame.child_us;
      stat.max_us = std::max(stat.max_us, duration);
    } else if (event.ph == "i") {
      ++summary.instants;
    } else if (event.ph == "C") {
      ++summary.counters;
    }
  }
  for (const auto& [track, stack] : stacks) {
    summary.unmatched += stack.size();
  }

  summary.categories.reserve(categories.size());
  for (auto& [name, stat] : categories) summary.categories.push_back(stat);
  summary.top_spans.reserve(spans.size());
  for (auto& [key, stat] : spans) summary.top_spans.push_back(stat);
  std::sort(summary.top_spans.begin(), summary.top_spans.end(),
            [](const SpanStat& a, const SpanStat& b) {
              if (a.self_us != b.self_us) return a.self_us > b.self_us;
              return a.name < b.name;
            });
  if (summary.top_spans.size() > top_n) summary.top_spans.resize(top_n);
  return summary;
}

std::string render_summary(const TraceSummary& summary) {
  char buf[160];
  std::string out = "trace summary\n";
  std::snprintf(buf, sizeof(buf),
                "  events: %llu (spans: %llu, instants: %llu, counters: "
                "%llu, unmatched: %llu)\n",
                static_cast<unsigned long long>(summary.total_events),
                static_cast<unsigned long long>(summary.spans),
                static_cast<unsigned long long>(summary.instants),
                static_cast<unsigned long long>(summary.counters),
                static_cast<unsigned long long>(summary.unmatched));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  dropped events: %llu\n",
                static_cast<unsigned long long>(summary.dropped));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  host timeline: %.1f us | sim timeline: %.1f us\n",
                summary.host_extent_us, summary.sim_extent_us);
  out += buf;
  if (!summary.categories.empty()) {
    out += "  per-category totals:\n";
    std::snprintf(buf, sizeof(buf), "    %-10s %10s %14s\n", "category",
                  "events", "span-us");
    out += buf;
    for (const auto& category : summary.categories) {
      std::snprintf(buf, sizeof(buf), "    %-10s %10llu %14.1f\n",
                    category.cat.c_str(),
                    static_cast<unsigned long long>(category.events),
                    category.span_us);
      out += buf;
    }
  }
  if (!summary.top_spans.empty()) {
    out += "  top spans by self time:\n";
    std::snprintf(buf, sizeof(buf), "    %12s %12s %7s %12s  %s\n",
                  "self-us", "total-us", "count", "max-us", "name");
    out += buf;
    for (const auto& span : summary.top_spans) {
      std::snprintf(buf, sizeof(buf), "    %12.1f %12.1f %7llu %12.1f  [%s] %s\n",
                    span.self_us, span.total_us,
                    static_cast<unsigned long long>(span.count), span.max_us,
                    span.pid == kSimPid ? "sim" : "host", span.name.c_str());
      out += buf;
    }
  }
  return out;
}

}  // namespace presp::trace
