// Unit tests for the cooperative-cancellation subsystem (core/cancel.h):
// token/source plumbing, monotonic deadlines, the thread-local scoped
// token, the process-wide stop channel (including real SIGINT/SIGTERM
// delivery) and the deterministic fault hooks CheckStop consults.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/cancel.h"
#include "core/faultpoint.h"
#include "core/parallel.h"
#include "core/status.h"

namespace tsaug::core {
namespace {

/// Leaves no global stop or fault spec behind, whatever a test does.
class CleanSlate {
 public:
  CleanSlate() {
    ClearGlobalStop();
    fault::Clear();
  }
  ~CleanSlate() {
    ClearGlobalStop();
    fault::Clear();
  }
};

TEST(StopToken, DefaultTokenIsInert) {
  const StopToken token;
  EXPECT_FALSE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.deadline_exceeded());
  EXPECT_EQ(token.deadline_nanos(), std::numeric_limits<std::int64_t>::max());
}

TEST(StopToken, RequestStopIsVisibleThroughEveryToken) {
  StopSource source;
  const StopToken before = source.token();
  EXPECT_TRUE(before.stop_possible());
  EXPECT_FALSE(before.stop_requested());
  source.RequestStop();
  EXPECT_TRUE(before.stop_requested());          // token taken before
  EXPECT_TRUE(source.token().stop_requested());  // and after
  EXPECT_TRUE(source.stop_requested());
}

TEST(StopToken, PastDeadlineIsExceededFutureIsNot) {
  StopSource source;
  source.SetDeadlineNanos(SteadyNowNanos() - 1);
  EXPECT_TRUE(source.token().has_deadline());
  EXPECT_TRUE(source.token().deadline_exceeded());

  StopSource patient;
  patient.SetDeadlineNanos(SteadyNowNanos() + 3'600'000'000'000);  // +1h
  EXPECT_TRUE(patient.token().has_deadline());
  EXPECT_FALSE(patient.token().deadline_exceeded());
}

TEST(StopToken, NonPositiveBudgetExpiresImmediately) {
  StopSource source;
  source.SetDeadlineAfterSeconds(0.0);
  EXPECT_TRUE(source.token().deadline_exceeded());
  StopSource negative;
  negative.SetDeadlineAfterSeconds(-5.0);
  EXPECT_TRUE(negative.token().deadline_exceeded());
}

TEST(CheckStop, OkWhenNothingIsStopping) {
  CleanSlate slate;
  EXPECT_TRUE(CheckStop("test.site").ok());
}

TEST(CheckStop, ReportsCancelledFromTheCurrentToken) {
  CleanSlate slate;
  StopSource source;
  source.RequestStop();
  {
    ScopedStopToken scoped(source.token());
    const Status status = CheckStop("trainer.epoch");
    EXPECT_EQ(status.code(), StatusCode::kCancelled);
    EXPECT_NE(status.context().find("trainer.epoch"), std::string::npos);
  }
  // The previous (inert) token is restored on scope exit.
  EXPECT_TRUE(CheckStop("trainer.epoch").ok());
}

TEST(CheckStop, ReportsDeadlineExceededFromTheCurrentToken) {
  CleanSlate slate;
  StopSource source;
  source.SetDeadlineNanos(SteadyNowNanos() - 1);
  ScopedStopToken scoped(source.token());
  const Status status = CheckStop("dba.iteration");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.context().find("deadline exceeded"), std::string::npos);
}

TEST(CheckStop, ScopedTokensNestBySaveRestore) {
  CleanSlate slate;
  StopSource outer;
  outer.RequestStop();
  StopSource inner;  // never stopped
  ScopedStopToken outer_scope(outer.token());
  EXPECT_FALSE(CheckStop("outer").ok());
  {
    ScopedStopToken inner_scope(inner.token());
    // The innermost token wins: the outer stop is masked for this scope
    // (exactly how a per-cell token shadows nothing-in-particular).
    EXPECT_TRUE(CheckStop("inner").ok());
    EXPECT_FALSE(CurrentStopToken().stop_requested());
  }
  EXPECT_FALSE(CheckStop("outer.again").ok());
}

TEST(GlobalStop, RequestAndClear) {
  CleanSlate slate;
  EXPECT_FALSE(GlobalStopRequested());
  RequestGlobalStop();
  EXPECT_TRUE(GlobalStopRequested());
  EXPECT_EQ(GlobalStopSignal(), 0);
  const Status status = CheckStop("grid.run");
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.context().find("stop requested"), std::string::npos);
  ClearGlobalStop();
  EXPECT_FALSE(GlobalStopRequested());
  EXPECT_TRUE(CheckStop("grid.run").ok());
}

TEST(GlobalStop, PooledParallelForReturnsOnceStopped) {
  CleanSlate slate;
  const int threads = GetNumThreads();
  SetNumThreads(4);
  RequestGlobalStop();
  // The stop abandons the batch before its first chunk; the submitter
  // must still return instead of waiting for chunks nobody will claim.
  std::atomic<int> chunks{0};
  ParallelFor(0, 1000, 1,
              [&chunks](std::int64_t, std::int64_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 0);
  SetNumThreads(threads);
}

TEST(GlobalStop, SignalHandlersRequestStopWithTheSignalNumber) {
  CleanSlate slate;
  InstallStopSignalHandlers();
  // std::raise runs the handler synchronously on this thread; the handler
  // only touches lock-free atomics, so this is the real delivery path.
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(GlobalStopRequested());
  EXPECT_EQ(GlobalStopSignal(), SIGTERM);
  const Status status = CheckStop("grid.run");
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.context().find(std::to_string(SIGTERM)),
            std::string::npos);

  ClearGlobalStop();
  ASSERT_EQ(std::raise(SIGINT), 0);
  EXPECT_TRUE(GlobalStopRequested());
  EXPECT_EQ(GlobalStopSignal(), SIGINT);
}

TEST(CheckStop, InjectedStopAndDeadlineFireDeterministically) {
  CleanSlate slate;
  fault::SetSpec("cancel.stop:2");
  EXPECT_TRUE(CheckStop("poll").ok());  // hit 1 of 2
  const Status stopped = CheckStop("poll");
  EXPECT_EQ(stopped.code(), StatusCode::kCancelled);
  EXPECT_NE(stopped.context().find("injected stop"), std::string::npos);
  EXPECT_TRUE(CheckStop("poll").ok());  // non-sticky rule: fired once

  fault::SetSpec("cancel.deadline:1");
  const Status expired = CheckStop("poll");
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(expired.context().find("injected deadline"), std::string::npos);
}

TEST(Status, CancellationCodesHaveStableNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "cancelled");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_EQ(CancelledError("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(DeadlineExceededError("x").code(),
            StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace tsaug::core
