// Tests for the deterministic fault-injection registry
// (core/faultpoint.h): spec parsing, Nth-hit semantics, per-domain hit
// counting and the disabled-by-default zero-cost path. Each test installs
// its spec via SetSpec (which resets all counters) and clears it on exit
// so tests stay order-independent.
#include <cstdint>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "core/faultpoint.h"
#include "core/parse.h"
#include "core/rng.h"
#include "core/status.h"

namespace tsaug::core::fault {
namespace {

class SpecGuard {
 public:
  explicit SpecGuard(const std::string& spec) { SetSpec(spec); }
  ~SpecGuard() { Clear(); }
};

TEST(FaultPoint, DisabledByDefaultAndRecordsNothing) {
  Clear();
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(ShouldFail("ridge.solve"));
  EXPECT_FALSE(ShouldFail("ridge.solve"));
  // The zero-cost path must not count hits.
  EXPECT_EQ(HitCount("ridge.solve"), 0);
}

TEST(FaultPoint, FiresOnExactlyTheNthHit) {
  SpecGuard guard("ridge.solve:3");
  EXPECT_TRUE(Enabled());
  EXPECT_FALSE(ShouldFail("ridge.solve"));  // hit 1
  EXPECT_FALSE(ShouldFail("ridge.solve"));  // hit 2
  EXPECT_TRUE(ShouldFail("ridge.solve"));   // hit 3: fires
  EXPECT_FALSE(ShouldFail("ridge.solve"));  // hit 4: one-shot rule
  EXPECT_EQ(HitCount("ridge.solve"), 4);
}

TEST(FaultPoint, PlusSuffixFiresOnEveryHitFromN) {
  SpecGuard guard("trainer.step:2+");
  EXPECT_FALSE(ShouldFail("trainer.step"));
  EXPECT_TRUE(ShouldFail("trainer.step"));
  EXPECT_TRUE(ShouldFail("trainer.step"));
  EXPECT_TRUE(ShouldFail("trainer.step"));
}

TEST(FaultPoint, OtherPointsAreUnaffected) {
  SpecGuard guard("ridge.solve:1");
  EXPECT_FALSE(ShouldFail("smote.generate"));
  EXPECT_TRUE(ShouldFail("ridge.solve"));
  EXPECT_FALSE(ShouldFail("smote.generate"));
}

TEST(FaultPoint, MultipleRulesAreIndependent) {
  SpecGuard guard("ridge.solve:1,smote.generate:2");
  EXPECT_TRUE(ShouldFail("ridge.solve"));
  EXPECT_FALSE(ShouldFail("smote.generate"));
  EXPECT_TRUE(ShouldFail("smote.generate"));
}

TEST(FaultPoint, DomainSubstringRestrictsRule) {
  SpecGuard guard("ridge.solve@smote:1");
  {
    ScopedDomain domain("cell/toy/run0/baseline");
    EXPECT_FALSE(ShouldFail("ridge.solve"));
  }
  {
    ScopedDomain domain("cell/toy/run0/smote");
    EXPECT_TRUE(ShouldFail("ridge.solve"));
  }
}

TEST(FaultPoint, HitsAreCountedPerDomain) {
  // Per-(rule, domain) counters: each domain gets its own 2nd hit, so
  // which cell a worker happens to run never shifts another cell's count.
  SpecGuard guard("ridge.solve:2");
  {
    ScopedDomain domain("cell/a");
    EXPECT_FALSE(ShouldFail("ridge.solve"));  // a: hit 1
  }
  {
    ScopedDomain domain("cell/b");
    EXPECT_FALSE(ShouldFail("ridge.solve"));  // b: hit 1
    EXPECT_TRUE(ShouldFail("ridge.solve"));   // b: hit 2 fires
  }
  {
    ScopedDomain domain("cell/a");
    EXPECT_TRUE(ShouldFail("ridge.solve"));  // a: hit 2 fires independently
  }
}

TEST(FaultPoint, ScopedDomainNestsAndRestores) {
  Clear();
  EXPECT_EQ(CurrentDomain(), "");
  {
    ScopedDomain outer("outer");
    EXPECT_EQ(CurrentDomain(), "outer");
    {
      ScopedDomain inner("inner");
      EXPECT_EQ(CurrentDomain(), "inner");
    }
    EXPECT_EQ(CurrentDomain(), "outer");
  }
  EXPECT_EQ(CurrentDomain(), "");
}

TEST(FaultPoint, SetSpecResetsCounters) {
  SetSpec("ridge.solve:2");
  EXPECT_FALSE(ShouldFail("ridge.solve"));  // hit 1
  SetSpec("ridge.solve:2");                 // reset
  EXPECT_FALSE(ShouldFail("ridge.solve"));  // hit 1 again
  EXPECT_TRUE(ShouldFail("ridge.solve"));   // hit 2
  Clear();
}

TEST(FaultPoint, MalformedRulesAreSkippedNotFatal) {
  // A typo in TSAUG_FAULTS must not abort the run it was meant to probe:
  // bad rules are skipped with a warning, good ones still apply.
  SpecGuard guard("nonsense,also:bad:,ridge.solve:1,:,x:0,y:-1");
  EXPECT_TRUE(Enabled());
  EXPECT_TRUE(ShouldFail("ridge.solve"));
  EXPECT_FALSE(ShouldFail("x"));
  EXPECT_FALSE(ShouldFail("y"));
}

TEST(FaultPoint, OverflowingCountIsMalformed) {
  // A count beyond int64 is a typo, not a rule that can never fire.
  SpecGuard guard("p:99999999999999999999,q:99999999999999999999+");
  EXPECT_FALSE(Enabled());
}

TEST(FaultPoint, FuzzedSpecsInstallExactlyTheWellFormedRules) {
  // Each spec is one rule built from parts whose validity is known, or a
  // string of random rule characters. The "!" abort action is only ever
  // in random strings, whose point names cannot spell "unhit".
  const std::string points[] = {"p", "q", "", "p@run1"};
  const std::string counts[] = {"1", "2", "3", "0", "-1", "", "1x", "01",
                                "9223372036854775807",
                                "9223372036854775808",
                                "99999999999999999999"};
  const std::string suffixes[] = {"", "+"};
  const std::string random_chars = "pq@:,+!-019 ";
  Rng rng(2026);
  for (int iter = 0; iter < 2000; ++iter) {
    if (rng.Bernoulli(0.25)) {
      std::string spec;
      const int len = rng.Int(0, 16);
      for (int i = 0; i < len; ++i) {
        spec += random_chars[static_cast<size_t>(
            rng.Index(static_cast<int>(random_chars.size())))];
      }
      SetSpec(spec);
      ASSERT_FALSE(ShouldFail("unhit")) << spec;
      continue;
    }
    const std::string& point = points[rng.Index(4)];
    const std::string& count = counts[rng.Index(11)];
    const std::string& suffix = suffixes[rng.Index(2)];
    SetSpec(point + ":" + count + suffix);
    const std::optional<std::int64_t> n =
        ParseInt<std::int64_t>(count, 1);
    const bool valid = !point.empty() && n.has_value();
    ASSERT_EQ(Enabled(), valid) << point << ":" << count << suffix;
    if (!valid || point != "p" || *n > 3) continue;
    // An undomained rule fires on exactly its Nth hit (and after, with +).
    for (std::int64_t hit = 1; hit <= 4; ++hit) {
      const bool fires = hit == *n || (suffix == "+" && hit > *n);
      ASSERT_EQ(ShouldFail("p"), fires)
          << point << ":" << count << suffix << " hit " << hit;
    }
  }
  Clear();
}

TEST(FaultPoint, AllMalformedSpecDisables) {
  SetSpec("nonsense");
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(ShouldFail("nonsense"));
  Clear();
}

TEST(FaultPoint, ClearDisables) {
  SetSpec("ridge.solve:1");
  EXPECT_TRUE(Enabled());
  Clear();
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(ShouldFail("ridge.solve"));
}

TEST(FaultPoint, InjectedAtReportsPointAndDomain) {
  Clear();
  ScopedDomain domain("cell/toy/run1/smote");
  const Status status = InjectedAt("ridge.solve");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInjectedFault);
  EXPECT_NE(status.context().find("ridge.solve"), std::string::npos);
  EXPECT_NE(status.context().find("cell/toy/run1/smote"), std::string::npos);
}

}  // namespace
}  // namespace tsaug::core::fault
