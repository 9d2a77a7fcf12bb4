// Tests for the strict parser of outside input (core/parse.h): the number
// parsers against std::from_chars, and the table-driven flag parser the
// binaries share. The fuzz loops follow ServeCodecTest's seeded pattern,
// so the ASan/UBSan legs run them too.
#include "core/parse.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace tsaug::core {
namespace {

TEST(ParseInt, AcceptsOnlyTheWholeNumberInRange) {
  EXPECT_EQ(ParseInt<int>("42"), 42);
  EXPECT_EQ(ParseInt<int>("-7"), -7);
  EXPECT_EQ(ParseInt<int>("007"), 7);
  EXPECT_EQ(ParseInt<int>("2147483647"), 2147483647);
  EXPECT_EQ(ParseInt<std::uint64_t>("18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(ParseInt<std::uint64_t>("4294967338"), 4294967338u);
  for (const char* bad : {"", " 1", "1 ", "+1", "1x", "0x10", "1.0", "1e3",
                          "2147483648", "-2147483649", "--1", "-"}) {
    EXPECT_FALSE(ParseInt<int>(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseInt<std::uint64_t>("-1").has_value());
  EXPECT_FALSE(ParseInt<std::uint64_t>("-0").has_value());
  EXPECT_FALSE(ParseInt<std::uint64_t>("18446744073709551616").has_value());
  EXPECT_FALSE(ParseInt<int>(std::string_view("1\0", 2)).has_value());
  EXPECT_EQ(ParseInt<int>("65535", 0, 65535), 65535);
  EXPECT_FALSE(ParseInt<int>("65536", 0, 65535).has_value());
  EXPECT_FALSE(ParseInt<int>("-1", 0).has_value());
}

TEST(ParseDouble, AcceptsDecimalScientificNanAndInf) {
  EXPECT_EQ(ParseDouble("2.5"), 2.5);
  EXPECT_EQ(ParseDouble("-1e-05"), -1e-05);
  EXPECT_EQ(ParseDouble("1."), 1.0);
  EXPECT_TRUE(std::isnan(*ParseDouble("NaN")));
  EXPECT_TRUE(std::isnan(*ParseDouble("nan")));
  EXPECT_EQ(ParseDouble("-inf"), -HUGE_VAL);
  for (const char* bad : {"", " 1", "1 ", "+1", "1e", "0x1p3", "1e400",
                          "abc", "1,5"}) {
    EXPECT_FALSE(ParseDouble(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(SplitList, KeepsNonEmptyEntriesInOrder) {
  EXPECT_EQ(SplitList("a,,b c,"), (std::vector<std::string>{"a", "b c"}));
  EXPECT_TRUE(SplitList("").empty());
  EXPECT_TRUE(SplitList(",,").empty());
}

/// A random string over the characters that matter to an integer parser.
std::string RandomNumberText(Rng& rng) {
  static const std::string kOthers = "-+ x.e";
  std::string text;
  const int len = rng.Int(0, 24);
  for (int i = 0; i < len; ++i) {
    // Digits are most of the draws, so long and overflowing numbers appear.
    const int pick = rng.Int(0, 45);
    text += pick < 40 ? static_cast<char>('0' + pick % 10)
                      : kOthers[static_cast<size_t>(pick - 40)];
  }
  return text;
}

/// `text` without leading zeros (a lone zero stays), after an optional
/// '-': the canonical spelling std::to_string gives a parsed value.
std::string Canonical(const std::string& text) {
  const size_t sign = !text.empty() && text[0] == '-' ? 1 : 0;
  size_t digits = text.find_first_not_of('0', sign);
  if (digits == std::string::npos) return "0";
  if (digits == sign) return text;
  return text.substr(0, sign) + text.substr(digits);
}

template <typename Int>
void CheckAgainstFromChars(const std::string& text, Int lo, Int hi) {
  Int expected{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, expected);
  const bool accept = error == std::errc() && stop == end &&
                      expected >= lo && expected <= hi;
  const std::optional<Int> parsed = ParseInt<Int>(text, lo, hi);
  ASSERT_EQ(parsed.has_value(), accept) << "'" << text << "'";
  if (!accept) return;
  ASSERT_EQ(*parsed, expected) << "'" << text << "'";
  // Independent of from_chars: the value spells the text back.
  const std::string spelled = std::to_string(*parsed);
  ASSERT_TRUE(spelled == Canonical(text) || (*parsed == 0 && text[0] == '-'))
      << "'" << text << "' -> " << spelled;
}

TEST(ParseInt, FuzzedTextMatchesFromChars) {
  Rng rng(20261019);
  int accepted = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::string text = RandomNumberText(rng);
    CheckAgainstFromChars<int>(text, INT32_MIN, INT32_MAX);
    CheckAgainstFromChars<int>(text, 0, 65535);
    CheckAgainstFromChars<std::int64_t>(text, 1, INT64_MAX);
    CheckAgainstFromChars<std::uint64_t>(text, 0, UINT64_MAX);
    if (ParseInt<std::int64_t>(text).has_value()) ++accepted;
  }
  // The alphabet must exercise both outcomes.
  EXPECT_GT(accepted, 50);
  EXPECT_LT(accepted, 1950);
}

/// One of each kind of flag.
struct Targets {
  bool on = false;
  std::string text = "default";
  int port = 7;
  std::uint64_t seed = 1;
  double linger = 2.0;

  std::vector<Flag> Table() {
    return {{"--on", &on},
            {"--text", &text},
            {"--port", &port, 0, 65535},
            {"--seed", &seed},
            {"--linger", &linger, 0, 60000}};
  }
};

Status Parse(const std::vector<std::string>& args, Targets& targets) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return ParseFlags(static_cast<int>(argv.size()), argv.data(),
                    targets.Table());
}

TEST(ParseFlags, StoresEveryKindOfFlag) {
  Targets t;
  ASSERT_TRUE(Parse({"--on", "--text", "x y", "--port", "65535", "--seed",
                     "18446744073709551615", "--linger", "0.5"},
                    t)
                  .ok());
  EXPECT_TRUE(t.on);
  EXPECT_EQ(t.text, "x y");
  EXPECT_EQ(t.port, 65535);
  EXPECT_EQ(t.seed, UINT64_MAX);
  EXPECT_EQ(t.linger, 0.5);

  Targets defaults;
  ASSERT_TRUE(Parse({}, defaults).ok());
  EXPECT_FALSE(defaults.on);
  EXPECT_EQ(defaults.port, 7);
  // The last occurrence wins; a text value may look like a flag.
  ASSERT_TRUE(Parse({"--port", "1", "--port", "2", "--text", "--on"}, t).ok());
  EXPECT_EQ(t.port, 2);
  EXPECT_EQ(t.text, "--on");
}

TEST(ParseFlags, RejectionsNameTheFlagAndTheValue) {
  const struct {
    std::vector<std::string> args;
    std::string message;
  } cases[] = {
      {{"--port"}, "--port expects a value"},
      {{"--on", "--port"}, "--port expects a value"},
      {{"--port", "70000"}, "--port expects an integer in [0, 65535], got "
                            "'70000'"},
      {{"--port", "-1"}, "got '-1'"},
      {{"--port", "8080x"}, "got '8080x'"},
      {{"--port", ""}, "got ''"},
      {{"--seed", "-1"},
       "--seed expects an integer in [0, 18446744073709551615], got '-1'"},
      {{"--linger", "nan"}, "--linger expects a number in [0, 60000], got "
                            "'nan'"},
      {{"--linger", "inf"}, "got 'inf'"},
      {{"stray"}, "unknown argument 'stray'"},
      {{"--port", "1", "--bogus", "2"}, "unknown argument '--bogus'"},
      {{"--on", "1"}, "unknown argument '1'"},
  };
  for (const auto& c : cases) {
    Targets t;
    const Status status = Parse(c.args, t);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.context().find(c.message), std::string::npos)
        << status.ToString();
  }
}

TEST(ParseFlags, FuzzedArgvMatchesThePerFlagParsers) {
  const std::vector<std::string> tokens = {
      "--on", "--text", "--port", "--seed", "--linger", "--bogus", "stray",
      "",     "0",      "80",     "65536",  "-1",       "1e3",     "nan",
      "0.25", "x",      "18446744073709551615", "99999999999999999999"};
  Rng rng(7);
  int ok = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::string> args;
    const int n = rng.Int(0, 6);
    for (int i = 0; i < n; ++i) args.push_back(rng.Choice(tokens));

    // Reference: walk the arguments flag by flag, parsing each value
    // with the number parsers checked above.
    Targets expected;
    bool expect_ok = true;
    for (size_t i = 0; i < args.size() && expect_ok; ++i) {
      const std::string& arg = args[i];
      if (arg == "--on") {
        expected.on = true;
        continue;
      }
      const bool known = arg == "--text" || arg == "--port" ||
                         arg == "--seed" || arg == "--linger";
      if (!known || i + 1 == args.size()) {
        expect_ok = false;
        break;
      }
      const std::string& value = args[++i];
      if (arg == "--text") {
        expected.text = value;
      } else if (arg == "--port") {
        const auto port = ParseInt<int>(value, 0, 65535);
        expect_ok = port.has_value();
        expected.port = port.value_or(0);
      } else if (arg == "--seed") {
        const auto seed = ParseInt<std::uint64_t>(value);
        expect_ok = seed.has_value();
        expected.seed = seed.value_or(0);
      } else {
        const auto linger = ParseDouble(value);
        expect_ok = linger && *linger >= 0 && *linger <= 60000;
        expected.linger = linger.value_or(0);
      }
    }

    Targets got;
    const Status status = Parse(args, got);
    ASSERT_EQ(status.ok(), expect_ok) << status.ToString();
    if (!status.ok()) {
      ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++ok;
    EXPECT_EQ(got.on, expected.on);
    EXPECT_EQ(got.text, expected.text);
    EXPECT_EQ(got.port, expected.port);
    EXPECT_EQ(got.seed, expected.seed);
    EXPECT_EQ(got.linger, expected.linger);
  }
  EXPECT_GT(ok, 50);
}

}  // namespace
}  // namespace tsaug::core
