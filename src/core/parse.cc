#include "core/parse.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <type_traits>

namespace tsaug::core {
namespace {

/// One end of a flag's range: its bound, or T's limit where it has none.
template <typename T>
std::string BoundText(double bound, T limit) {
  if (std::is_integral_v<T> && std::isinf(bound)) return std::to_string(limit);
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", bound);
  return text;
}

Status Store(const Flag& flag, std::string_view, bool*) {
  return InvalidArgumentError(std::string(flag.name) + " takes no value");
}

Status Store(const Flag&, std::string_view text, std::string* out) {
  *out = text;
  return OkStatus();
}

template <typename T>
Status Store(const Flag& flag, std::string_view text, T* out) {
  std::optional<T> value;
  if constexpr (std::is_integral_v<T>) {
    value = ParseInt<T>(text);
  } else {
    value = ParseDouble(text);
  }
  if (value && static_cast<double>(*value) >= flag.min &&
      static_cast<double>(*value) <= flag.max) {
    *out = *value;
    return OkStatus();
  }
  return InvalidArgumentError(
      std::string(flag.name) +
      (std::is_integral_v<T> ? " expects an integer in ["
                             : " expects a number in [") +
      BoundText(flag.min, std::numeric_limits<T>::lowest()) + ", " +
      BoundText(flag.max, std::numeric_limits<T>::max()) + "], got '" +
      std::string(text) + "'");
}

}  // namespace

std::optional<double> ParseDouble(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

std::vector<std::string> SplitList(std::string_view text) {
  std::vector<std::string> out;
  while (!text.empty()) {
    const std::size_t comma = std::min(text.find(','), text.size());
    if (comma > 0) out.emplace_back(text.substr(0, comma));
    text.remove_prefix(std::min(comma + 1, text.size()));
  }
  return out;
}

Status ParseFlagValue(const Flag& flag, std::string_view text) {
  return std::visit([&](auto* out) { return Store(flag, text, out); },
                    flag.target);
}

Status ParseFlags(int argc, const char* const* argv,
                  const std::vector<Flag>& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Flag& f) { return arg == f.name; });
    if (flag == flags.end()) {
      return InvalidArgumentError("unknown argument '" + std::string(arg) +
                                  "'");
    }
    if (bool* const* on = std::get_if<bool*>(&flag->target)) {
      **on = true;
    } else if (++i == argc) {
      return InvalidArgumentError(std::string(arg) + " expects a value");
    } else {
      TSAUG_RETURN_IF_ERROR(ParseFlagValue(*flag, argv[i]));
    }
  }
  return OkStatus();
}

}  // namespace tsaug::core
