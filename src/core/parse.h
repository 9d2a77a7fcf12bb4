#ifndef TSAUG_CORE_PARSE_H_
#define TSAUG_CORE_PARSE_H_

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/status.h"

namespace tsaug::core {

/// The one parser for numbers from outside the program (DESIGN.md, "Input
/// from outside"). A value parses only when `text` is exactly the number:
/// no whitespace, no '+', no '-' on an unsigned type, no "0x", no trailing
/// characters, no overflow. ParseInt also requires lo <= value <= hi.
template <typename Int>
std::optional<Int> ParseInt(std::string_view text,
                            Int lo = std::numeric_limits<Int>::min(),
                            Int hi = std::numeric_limits<Int>::max(),
                            int base = 10) {
  Int value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value, base);
  if (error != std::errc() || stop != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

/// Fixed or scientific notation, or "nan"/"inf" in any case.
std::optional<double> ParseDouble(std::string_view text);

/// The non-empty entries of a comma-separated list.
std::vector<std::string> SplitList(std::string_view text);

/// A `--name VALUE` flag or a TSAUG_* knob, and the variable that takes
/// its value; a bool variable makes a switch without a value. A number
/// must lie in [min, max] (never NaN).
struct Flag {
  const char* name;
  std::variant<bool*, std::string*, int*, std::uint64_t*, double*> target;
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
};

/// Stores `text` in `flag.target`; InvalidArgument naming the flag, its
/// accepted range and `text` when `text` does not parse or is out of range.
[[nodiscard]] Status ParseFlagValue(const Flag& flag, std::string_view text);

/// Parses argv[1..argc) as flags of `flags`. InvalidArgument naming the
/// argument for an unknown or positional argument, a flag without its
/// value, or a value ParseFlagValue rejects.
[[nodiscard]] Status ParseFlags(int argc, const char* const* argv,
                                const std::vector<Flag>& flags);

}  // namespace tsaug::core

#endif  // TSAUG_CORE_PARSE_H_
