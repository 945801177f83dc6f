// The JSON format, in one place: the string escaper and number writer
// every JSON emitter uses, and a cursor reader for the documents PR-ESP
// reads back (floorplan artifacts, Chrome traces). Schema-specific walks
// stay with their modules; this header only knows the grammar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace presp {

/// Appends `text` as a quoted JSON string. Escapes '"', '\\', '\n', '\t',
/// '\r' and other bytes below 0x20 as \u00XX; other bytes pass through.
void append_json_string(std::string& out, std::string_view text);

/// Appends `value` as a JSON number: integral values within ±1e15 without
/// a fraction (so counter-like values stay byte-stable across platforms),
/// everything else as "%.6g". Non-finite values, which JSON cannot
/// represent, render as `null`.
void append_json_number(std::string& out, double value);

/// Cursor-based reader over a JSON document. Every failure throws
/// presp::ConfigError "<context>: <what> at offset <byte>". `text` must
/// outlive the reader.
class JsonReader {
 public:
  JsonReader(std::string_view text, std::string context);

  /// Skips whitespace, then consumes `c` if it is next.
  bool consume(char c);
  void expect(char c);
  /// Skips whitespace, then consumes a `null` literal if it is next.
  bool consume_null();
  /// A string value, with every JSON escape decoded (\uXXXX to UTF-8).
  std::string string();
  double number();
  /// A number written as an integer literal within [lo, hi].
  std::int64_t integer(std::int64_t lo, std::int64_t hi);
  /// Skips any value: an unknown field stays forward-compatible.
  void skip_value();
  /// Walks `{"key": value, ...}`; `on_member(key)` must read the value.
  template <typename F>
  void members(F&& on_member) {
    expect('{');
    if (consume('}')) return;
    do {
      const std::string key = string();
      expect(':');
      on_member(key);
    } while (consume(','));
    expect('}');
  }
  /// Walks `[value, ...]`; `on_element()` must read each value.
  template <typename F>
  void elements(F&& on_element) {
    expect('[');
    if (consume(']')) return;
    do {
      on_element();
    } while (consume(','));
    expect(']');
  }
  /// Rejects anything but whitespace after the document.
  void finish();

  [[noreturn]] void fail(const std::string& what) const;

 private:
  void skip_ws();
  void skip_value(int depth);
  bool consume_literal(std::string_view word);
  /// The maximal run of number characters at the cursor (after ws).
  std::string_view number_token();
  unsigned hex4();

  std::string_view text_;
  std::string context_;
  std::size_t pos_ = 0;
};

}  // namespace presp
