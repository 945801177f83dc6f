// Sectioned key=value configuration, modeled on ESP's `.esp_config` files.
// The PR-ESP flow is driven from one of these: grid dimensions, per-tile
// type/accelerator assignments, target device, flow options. Syntax:
//
//   # comment
//   [section]
//   key = value
//
// Keys outside any [section] live in the "" (global) section.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace presp {

class Config {
 public:
  Config() = default;

  /// Parses config text; throws ConfigError with a line number on syntax
  /// errors or duplicate keys within a section.
  static Config parse(const std::string& text);

  void set(const std::string& section, const std::string& key,
           const std::string& value);

  bool has(const std::string& section, const std::string& key) const;

  /// Throws ConfigError if the key is missing.
  const std::string& get(const std::string& section,
                         const std::string& key) const;
  std::string get_or(const std::string& section, const std::string& key,
                     const std::string& fallback) const;
  long long get_int(const std::string& section, const std::string& key) const;
  long long get_int_or(const std::string& section, const std::string& key,
                       long long fallback) const;
  /// get_int, or get_int_or when `fallback` is set, for `int` fields:
  /// throws ConfigError naming the section and key when the value does
  /// not fit in an int.
  int get_int32(const std::string& section, const std::string& key,
                std::optional<int> fallback = std::nullopt) const;
  double get_double(const std::string& section, const std::string& key) const;
  bool get_bool_or(const std::string& section, const std::string& key,
                   bool fallback) const;

  /// Section names in first-seen order.
  std::vector<std::string> sections() const;
  /// Keys of one section in first-seen order; empty if section absent.
  std::vector<std::string> keys(const std::string& section) const;

  /// Serializes back to parseable text (sections in first-seen order).
  std::string to_string() const;

 private:
  struct Section {
    std::vector<std::string> order;
    std::map<std::string, std::string> values;
  };
  const Section* find_section(const std::string& name) const;

  std::vector<std::string> section_order_;
  std::map<std::string, Section> sections_;
};

}  // namespace presp
