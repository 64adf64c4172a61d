#include "obs/json_parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/error.hpp"

namespace bgpsim::obs {

std::uint64_t JsonValue::as_u64(std::uint64_t fallback) const {
  if (integer_) return *integer_;
  // Past 2^64 (and for NaN) the cast below would be undefined behaviour.
  if (!is_number() || !(number_ >= 0.0 && number_ < 0x1p64)) return fallback;
  return static_cast<std::uint64_t>(number_);
}

std::optional<std::uint64_t> JsonValue::as_integer(std::uint64_t max) const {
  if (!integer_ || *integer_ > max) return std::nullopt;
  return integer_;
}

namespace {

/// The exact value of a number literal strtod has accepted
/// ([-]digits[.digits][(e|E)[+-]digits]) when it is a whole number in
/// [0, 2^64), else nullopt.
std::optional<std::uint64_t> exact_integer(std::string_view token) {
  std::int64_t exponent = 0;  // value = digits * 10^exponent
  if (const std::size_t e = token.find_first_of("eE"); e != std::string_view::npos) {
    std::string_view power = token.substr(e + 1);
    if (power.starts_with('+')) power.remove_prefix(1);
    const char* last = power.data() + power.size();
    if (std::from_chars(power.data(), last, exponent).ec != std::errc() ||
        exponent < -(1 << 20) || exponent > (1 << 20)) {
      return std::nullopt;
    }
    token = token.substr(0, e);
  }
  const std::size_t dot = token.find('.');
  std::string digits(token.substr(0, dot));
  if (dot != std::string_view::npos) {
    digits += token.substr(dot + 1);
    exponent -= static_cast<std::int64_t>(token.size() - dot - 1);
  }
  const bool negative = digits.starts_with('-');
  digits.erase(0, digits.find_first_not_of("-0"));
  if (digits.empty()) return 0;  // every spelling of zero, -0 included
  while (digits.back() == '0') {
    digits.pop_back();
    ++exponent;
  }
  // The last digit is nonzero now: a negative exponent leaves a fraction,
  // and 20 or more places reach past 2^64.
  if (negative || exponent < 0 || exponent > 19) return std::nullopt;
  digits.append(static_cast<std::size_t>(exponent), '0');
  std::uint64_t value = 0;
  const char* last = digits.data() + digits.size();
  if (std::from_chars(digits.data(), last, value).ec != std::errc()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto it = members_.find(std::string(key));
  return it != members_.end() ? &it->second : nullptr;
}

const JsonValue* JsonValue::find_path(
    std::initializer_list<std::string_view> keys) const {
  const JsonValue* node = this;
  for (const std::string_view key : keys) {
    if (node == nullptr) return nullptr;
    node = node->find(key);
  }
  return node;
}

double JsonValue::number_at(std::string_view key, double fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr ? member->as_number(fallback) : fallback;
}

// Named (not anonymous) so the friend declaration in json_parse.hpp applies.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("json: " + message + " at offset " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string_value();
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue value;
    value.kind_ = JsonValue::Kind::Bool;
    value.bool_ = b;
    return value;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue value;
    value.kind_ = JsonValue::Kind::Object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      value.members_[std::move(key)] = parse_value();
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue value;
    value.kind_ = JsonValue::Kind::Array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items_.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  JsonValue parse_string_value() {
    JsonValue value;
    value.kind_ = JsonValue::Kind::String;
    value.string_ = parse_string();
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // Emitter-side escapes are all < 0x20; encode the general case as
          // UTF-8 without surrogate pairing (outside the artifact alphabet).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  /// Consume a run of ASCII digits; returns how many.
  std::size_t skip_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ - start;
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  /// Anything else (+5, 01, 1., .5) is not JSON.
  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    const std::size_t int_start = pos_;
    const std::size_t int_digits = skip_digits();
    if (int_digits == 0) fail(pos_ == start ? "expected a value" : "bad number");
    if (int_digits > 1 && text_[int_start] == '0') fail("leading zero in number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (skip_digits() == 0) fail("expected a digit after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (skip_digits() == 0) fail("expected a digit in the exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) fail("number out of range '" + token + "'");
    JsonValue out;
    out.kind_ = JsonValue::Kind::Number;
    out.number_ = value;
    out.integer_ = exact_integer(token);
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return JsonValue::parse(buffer.str());
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  }
}

}  // namespace bgpsim::obs
