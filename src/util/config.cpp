#include "util/config.hpp"

#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace presp {

Config Config::parse(const std::string& text) {
  Config cfg;
  std::string section;
  int line_no = 0;
  std::istringstream is(text);
  std::string raw;
  while (std::getline(is, raw)) {
    ++line_no;
    std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']')
        throw ConfigError("line " + std::to_string(line_no) +
                          ": unterminated section header");
      section = std::string(trim(line.substr(1, line.size() - 2)));
      if (section.empty())
        throw ConfigError("line " + std::to_string(line_no) +
                          ": empty section name");
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos)
      throw ConfigError("line " + std::to_string(line_no) +
                        ": expected 'key = value'");
    const std::string key{trim(line.substr(0, eq))};
    const std::string value{trim(line.substr(eq + 1))};
    if (key.empty())
      throw ConfigError("line " + std::to_string(line_no) + ": empty key");
    if (cfg.has(section, key))
      throw ConfigError("line " + std::to_string(line_no) +
                        ": duplicate key '" + key + "' in section [" +
                        section + "]");
    cfg.set(section, key, value);
  }
  return cfg;
}

void Config::set(const std::string& section, const std::string& key,
                 const std::string& value) {
  auto it = sections_.find(section);
  if (it == sections_.end()) {
    section_order_.push_back(section);
    it = sections_.emplace(section, Section{}).first;
  }
  auto& sec = it->second;
  if (sec.values.find(key) == sec.values.end()) sec.order.push_back(key);
  sec.values[key] = value;
}

const Config::Section* Config::find_section(const std::string& name) const {
  const auto it = sections_.find(name);
  return it == sections_.end() ? nullptr : &it->second;
}

bool Config::has(const std::string& section, const std::string& key) const {
  const Section* sec = find_section(section);
  return sec != nullptr && sec->values.find(key) != sec->values.end();
}

const std::string& Config::get(const std::string& section,
                               const std::string& key) const {
  const Section* sec = find_section(section);
  if (sec != nullptr) {
    const auto it = sec->values.find(key);
    if (it != sec->values.end()) return it->second;
  }
  throw ConfigError("missing config key [" + section + "] " + key);
}

std::string Config::get_or(const std::string& section, const std::string& key,
                           const std::string& fallback) const {
  return has(section, key) ? get(section, key) : fallback;
}

long long Config::get_int(const std::string& section,
                          const std::string& key) const {
  return parse_int(get(section, key));
}

long long Config::get_int_or(const std::string& section,
                             const std::string& key,
                             long long fallback) const {
  return has(section, key) ? get_int(section, key) : fallback;
}

int Config::get_int32(const std::string& section, const std::string& key,
                      std::optional<int> fallback) const {
  if (fallback && !has(section, key)) return *fallback;
  const long long value = get_int(section, key);
  if (!std::in_range<int>(value))
    throw ConfigError("[" + section + "] " + key + " = " +
                      std::to_string(value) + " does not fit in an int");
  return static_cast<int>(value);
}

double Config::get_double(const std::string& section,
                          const std::string& key) const {
  return parse_double(get(section, key));
}

bool Config::get_bool_or(const std::string& section, const std::string& key,
                         bool fallback) const {
  if (!has(section, key)) return fallback;
  const std::string v = to_lower(get(section, key));
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw ConfigError("malformed boolean for [" + section + "] " + key + ": '" +
                    v + "'");
}

std::vector<std::string> Config::sections() const { return section_order_; }

std::vector<std::string> Config::keys(const std::string& section) const {
  const Section* sec = find_section(section);
  return sec == nullptr ? std::vector<std::string>{} : sec->order;
}

std::string Config::to_string() const {
  std::ostringstream os;
  for (const auto& name : section_order_) {
    const Section& sec = sections_.at(name);
    if (!name.empty()) os << '[' << name << "]\n";
    for (const auto& key : sec.order)
      os << key << " = " << sec.values.at(key) << '\n';
  }
  return os.str();
}

}  // namespace presp
