// Flag tables for the command-line tools. A tool declares each flag it reads
// once, as a row (name, kind, one-line help); the same table drives parsing,
// validation and `--help`. Header-only and std-only on purpose: bgpsim-lint
// and bgpsim-profview link nothing and must build when the libraries do not.
//
// Parsed::parse rejects an unknown flag, a missing value, a malformed or
// out-of-range number and a positional argument past the tool's limit: the
// message names the flag, the usage goes to stderr and the exit status is 2.
// `--help` / `-h` prints the usage on stdout and exits 0.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bgpsim::flags {

/// OptionalText is `--name [value]`: the next word is its value unless that
/// word is a flag.
enum class Kind : std::uint8_t { Switch, Text, OptionalText, Count, Fraction };

/// One row of a flag table. A Count takes a whole number and a Fraction a
/// finite decimal, both in [0, max].
struct Flag {
  std::string_view name;  ///< without the leading "--"
  Kind kind;
  std::string_view help;
  double max = 0.0;
};

constexpr Flag toggle(std::string_view name, std::string_view help) {
  return {name, Kind::Switch, help};
}
constexpr Flag text(std::string_view name, std::string_view help) {
  return {name, Kind::Text, help};
}
/// A whole number up to the largest value of T, the type it is read into.
template <class T>
constexpr Flag count(std::string_view name, std::string_view help) {
  return {name, Kind::Count, help, double(std::numeric_limits<T>::max())};
}
constexpr Flag fraction(std::string_view name, std::string_view help,
                        double max = std::numeric_limits<double>::max()) {
  return {name, Kind::Fraction, help, max};
}

/// What a tool (or one bgpsim command) accepts.
struct Usage {
  std::string synopsis;    ///< "bgpsim attack [options]"
  std::string_view about;  ///< printed under the synopsis; may be empty
  std::vector<Flag> flags;
  std::size_t max_positional = 0;
};

inline void print_usage(std::FILE* to, const Usage& usage) {
  std::fprintf(to, "usage: %s\n", usage.synopsis.c_str());
  if (!usage.about.empty()) std::fprintf(to, "%s\n", std::string(usage.about).c_str());
  for (const Flag& flag : usage.flags) {
    constexpr const char* kValue[] = {"", " <text>", " [<text>]", " <n>", " <x>"};
    const std::string left = "--" + std::string(flag.name) + kValue[int(flag.kind)];
    std::fprintf(to, "  %-24s %s\n", left.c_str(), std::string(flag.help).c_str());
  }
}

/// Print the message and the usage on stderr; returns 2, the exit status of
/// every usage error.
inline int usage_error(const Usage& usage, const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  print_usage(stderr, usage);
  return 2;
}

/// The flags one invocation gave. Reading a name the table does not declare
/// throws std::logic_error, so a tool cannot read a flag its --help omits.
class Parsed {
 public:
  /// Parse argv[first, argc) against `usage`. Returns nullopt when the tool
  /// should go on, else the exit status to stop with: 0 after --help, 2
  /// after a usage error.
  std::optional<int> parse(const Usage& usage, int argc, char** argv, int first) {
    rows_ = usage.flags;
    values_.assign(rows_.size(), std::nullopt);
    positional_.clear();
    for (int i = first; i < argc; ++i) {
      const std::string word = argv[i];
      if (word == "--help" || word == "-h") {
        print_usage(stdout, usage);
        return 0;
      }
      if (word.empty() || word[0] != '-') {
        if (positional_.size() >= usage.max_positional) {
          return usage_error(usage, "unexpected argument '" + word + "'");
        }
        positional_.push_back(word);
        continue;
      }
      std::size_t row = 0;
      while (row < rows_.size() && "--" + std::string(rows_[row].name) != word) ++row;
      if (row == rows_.size()) return usage_error(usage, "unknown flag " + word);
      const Flag& flag = rows_[row];
      std::string value;
      if (flag.kind != Kind::Switch && i + 1 < argc &&
          std::string_view(argv[i + 1]).substr(0, 2) != "--") {
        value = argv[++i];
      } else if (flag.kind != Kind::Switch && flag.kind != Kind::OptionalText) {
        return usage_error(usage, word + " needs a value");
      }
      const char* end = value.data() + value.size();
      std::from_chars_result read{end, std::errc()};
      std::uint64_t whole = 0;
      double number = 0.0;
      if (flag.kind == Kind::Count) {
        read = std::from_chars(value.data(), end, whole);
        number = double(whole);
      } else if (flag.kind == Kind::Fraction) {
        read = std::from_chars(value.data(), end, number);
      }
      if (read.ec != std::errc() || read.ptr != end ||
          !(number >= 0.0 && number <= flag.max)) {
        char max[32];
        std::snprintf(max, sizeof max, "%.15g", flag.max);
        return usage_error(usage, word + " wants a " +
                                      (flag.kind == Kind::Count ? "whole " : "") +
                                      "number in [0, " + max + "], got '" + value +
                                      "'");
      }
      values_[row] = std::move(value);
    }
    return std::nullopt;
  }

  bool has(std::string_view name) const { return values_[index(name)].has_value(); }

  /// A Text value; "" for an OptionalText given without one.
  std::optional<std::string> text(std::string_view name) const {
    return values_[index(name)];
  }

  template <class T>
  std::optional<T> count(std::string_view name) const {
    const std::size_t i = index(name);
    if (rows_[i].max > double(std::numeric_limits<T>::max())) {
      throw std::logic_error("flag --" + std::string(name) + " overflows its type");
    }
    const auto& value = values_[i];
    if (!value) return std::nullopt;
    T n{};
    std::from_chars(value->data(), value->data() + value->size(), n);
    return n;
  }
  template <class T>
  T count(std::string_view name, T fallback) const {
    return count<T>(name).value_or(fallback);
  }

  double fraction(std::string_view name, double fallback) const {
    const auto& value = values_[index(name)];
    if (value) std::from_chars(value->data(), value->data() + value->size(), fallback);
    return fallback;
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::size_t index(std::string_view name) const {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i].name == name) return i;
    }
    throw std::logic_error("flag --" + std::string(name) + " is not in the table");
  }

  std::vector<Flag> rows_;
  std::vector<std::optional<std::string>> values_;
  std::vector<std::string> positional_;
};

}  // namespace bgpsim::flags
