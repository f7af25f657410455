// Checked command-line parsing shared by the tools.
//
// Every value must parse in full and sit inside its range, or the tool
// prints why and exits 2: a typo (`--packets 1e6`, `--p 7`) never quietly
// changes the experiment.
//
//   for (nitro::tools::Flags f(argc, argv); f.next();) {
//     if (f.is("--packets")) opt.packets = f.number<std::uint64_t>(1, kMax);
//     else if (f.is("--paced")) opt.paced = true;
//     else f.unknown();
//   }
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace nitro::tools {

/// Largest value for flags whose range is open above.
template <typename T>
inline constexpr T kMax = std::numeric_limits<T>::max();

/// Smallest positive double: the lower bound of a range open at 0.
inline constexpr double kPositive = std::numeric_limits<double>::min();

class Flags {
 public:
  Flags(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advance to the next argument; false once argv is exhausted.
  bool next() {
    if (i_ + 1 >= argc_) return false;
    arg_ = argv_[++i_];
    return true;
  }

  const std::string& arg() const noexcept { return arg_; }
  bool is(std::string_view name) const noexcept { return arg_ == name; }

  /// The current flag's value argument.
  const char* value() {
    if (i_ + 1 >= argc_) fail("missing value for " + arg_);
    return argv_[++i_];
  }

  /// The current flag's value as a number in [lo, hi].  Integers may be
  /// read in another `base` (16 for keys, with an optional 0x/0X prefix);
  /// floating point rejects NaN.
  template <typename T>
  T number(T lo, T hi, int base = 10) {
    const std::string_view v = value();
    std::string_view digits = v;
    if (base == 16 && (digits.starts_with("0x") || digits.starts_with("0X"))) {
      digits.remove_prefix(2);
    }
    T out{};
    std::from_chars_result r;
    if constexpr (std::is_floating_point_v<T>) {
      r = std::from_chars(digits.data(), digits.data() + digits.size(), out);
    } else {
      r = std::from_chars(digits.data(), digits.data() + digits.size(), out, base);
    }
    if (r.ec != std::errc() || r.ptr != digits.data() + digits.size()) {
      fail("bad value for " + arg_ + ": '" + std::string(v) + "'");
    }
    if (!(out >= lo && out <= hi)) {
      const bool open_at_zero = std::is_floating_point_v<T> && lo == T(kPositive);
      fail(arg_ + " must be in " + (open_at_zero ? "(0" : "[" + to_text(lo)) + ", " +
           to_text(hi) + "], got '" + std::string(v) + "'");
    }
    return out;
  }

  /// The current flag's value, which must be one of `choices`.
  std::string choice(std::initializer_list<std::string_view> choices) {
    const std::string v = value();
    std::string all;
    for (const auto c : choices) {
      if (v == c) return v;
      all += (all.empty() ? "" : "|") + std::string(c);
    }
    fail("unknown " + arg_.substr(2) + " '" + v + "' (want " + all + ")");
  }

  [[noreturn]] void unknown() const { fail("unknown option: " + arg_); }

  [[noreturn]] static void fail(const std::string& why) {
    std::fprintf(stderr, "%s\n", why.c_str());
    std::exit(2);
  }

 private:
  template <typename T>
  static std::string to_text(T v) {
    if (v == kMax<T>) return "max";
    if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", v);
      return buf;
    } else {
      return std::to_string(v);
    }
  }

  int argc_;
  char** argv_;
  int i_ = 0;
  std::string arg_;
};

}  // namespace nitro::tools
