#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/error.hpp"

namespace presp {

namespace {

/// Bounds skip_value()'s recursion so a hostile `[[[[...` document fails
/// with a ConfigError instead of exhausting the stack.
constexpr int kMaxSkipDepth = 128;

void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

}  // namespace

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  // The range test comes first: casting a double outside long long's
  // range is undefined behaviour.
  if (std::fabs(value) < 1e15 && value == std::trunc(value)) {
    out += std::to_string(static_cast<long long>(value));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out += buf;
}

// ---------------------------------------------------------------- reader

JsonReader::JsonReader(std::string_view text, std::string context)
    : text_(text), context_(std::move(context)) {}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
          text_[pos_] == '\r'))
    ++pos_;
}

bool JsonReader::consume(char c) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

void JsonReader::expect(char c) {
  if (!consume(c)) fail(std::string("expected '") + c + "'");
}

bool JsonReader::consume_literal(std::string_view word) {
  skip_ws();
  if (text_.substr(pos_, word.size()) != word) return false;
  pos_ += word.size();
  return true;
}

bool JsonReader::consume_null() { return consume_literal("null"); }

unsigned JsonReader::hex4() {
  const char* begin = text_.data() + pos_;
  unsigned code = 0;
  if (text_.size() - pos_ < 4 ||
      std::from_chars(begin, begin + 4, code, 16).ptr != begin + 4)
    fail("bad \\u escape");
  pos_ += 4;
  return code;
}

std::string JsonReader::string() {
  expect('"');
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_];
    if (static_cast<unsigned char>(c) < 0x20)
      fail("raw control byte in string");
    ++pos_;
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"':
      case '\\':
      case '/': out += esc; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned code = hex4();
        if (code >= 0xD800 && code < 0xDC00) {
          // A high surrogate must pair with a low one.
          if (text_.substr(pos_, 2) != "\\u") fail("unpaired surrogate");
          pos_ += 2;
          const unsigned low = hex4();
          if (low < 0xDC00 || low >= 0xE000) fail("unpaired surrogate");
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code < 0xE000) {
          fail("unpaired surrogate");
        }
        append_utf8(out, code);
        break;
      }
      default: fail("unknown escape");
    }
  }
}

std::string_view JsonReader::number_token() {
  skip_ws();
  const std::size_t start = pos_;
  while (pos_ < text_.size() &&
         std::string_view("+-.0123456789eE").find(text_[pos_]) !=
             std::string_view::npos)
    ++pos_;
  return text_.substr(start, pos_ - start);
}

double JsonReader::number() {
  const std::string_view token = number_token();
  const char* end = token.data() + token.size();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end) {
    pos_ -= token.size();
    fail("expected number");
  }
  return value;
}

std::int64_t JsonReader::integer(std::int64_t lo, std::int64_t hi) {
  const std::string_view token = number_token();
  const char* end = token.data() + token.size();
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end || value < lo ||
      value > hi) {
    pos_ -= token.size();
    fail("expected an integer in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]");
  }
  return value;
}

void JsonReader::skip_value() { skip_value(0); }

void JsonReader::skip_value(int depth) {
  if (depth > kMaxSkipDepth) fail("nesting too deep");
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  const char c = text_[pos_];
  if (c == '"') {
    string();
  } else if (c == '{') {
    members([&](const std::string&) { skip_value(depth + 1); });
  } else if (c == '[') {
    elements([&] { skip_value(depth + 1); });
  } else if (!consume_literal("true") && !consume_literal("false") &&
             !consume_null()) {
    number();
  }
}

void JsonReader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing content");
}

void JsonReader::fail(const std::string& what) const {
  throw ConfigError(context_ + ": " + what + " at offset " +
                    std::to_string(pos_));
}

}  // namespace presp
