#ifndef TSAUG_CORE_STATUS_H_
#define TSAUG_CORE_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "core/check.h"

namespace tsaug::core {

/// Recoverable-error layer for data-dependent failures.
///
/// Contract (see DESIGN.md, "Error handling"): TSAUG_CHECK stays strictly
/// for programmer errors — shape mismatches, violated API preconditions —
/// and keeps aborting in every build type. Conditions that depend on the
/// *data* (a singular Gram matrix, a diverging GAN, a class with a single
/// member, an injected test fault) are reported as a Status so the caller
/// can apply a recovery policy (escalate ridge alpha, restore a trainer
/// checkpoint, fall back to a simpler augmenter) or record the cell as
/// failed and keep the experiment grid running.
enum class StatusCode {
  kOk = 0,
  kSingular,          // linear system not solvable (even after jitter)
  kDiverged,          // iterative optimisation produced non-finite values
  kDegenerateInput,   // data too small/degenerate for the requested op
  kInjectedFault,     // fired fault-injection point (core/faultpoint.h)
  kCancelled,         // cooperative stop requested (core/cancel.h)
  kDeadlineExceeded,  // monotonic deadline passed (core/cancel.h)
  kInvalidArgument,   // malformed request/frame from an external caller
  kUnavailable,       // serving admission control rejected the request
  // Degenerate-input diagnoses from preflight validation (core/validate.h).
  // Refinements of kDegenerateInput: code-gated recovery policies need to
  // tell an empty class from a fully-missing channel from a geometry
  // mismatch without parsing context strings. Append-only (the journal and
  // the wire codec serialise codes by name/value).
  kEmptyClass,        // a class label owns zero training instances
  kAllMissing,        // a channel (or whole series) is entirely NaN
  kGeometryMismatch,  // channel counts / lengths inconsistent for the op
};

/// Stable lowercase name ("ok", "singular", ...), for reports and tests.
const char* StatusCodeName(StatusCode code);

/// [[nodiscard]]: a dropped Status is a silently swallowed failure, so
/// ignoring any Status-returning call is a compile warning (-Werror in
/// CI). The rare intentional discard is written `(void)Call();` and
/// counted against a frozen per-file budget (lint rule
/// status-discard-budget in tools/lint_tsaug.py).
class [[nodiscard]] Status {
 public:
  /// Default construction is OK, so `Status s; ... return s;` works.
  Status() = default;
  Status(StatusCode code, std::string context)
      : code_(code), context_(std::move(context)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& context() const { return context_; }

  /// Prepends a caller-side frame: "ridge.loocv: <existing context>".
  /// Returns *this so propagation sites can chain on the return path.
  Status& AddContext(const std::string& frame);

  /// "ok" or "<code name>: <context>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.context_ == b.context_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string context_;
};

inline Status OkStatus() { return Status(); }
Status SingularError(std::string context);
Status DivergedError(std::string context);
Status DegenerateInputError(std::string context);
Status InjectedFaultError(std::string context);
Status CancelledError(std::string context);
Status DeadlineExceededError(std::string context);
Status InvalidArgumentError(std::string context);
Status UnavailableError(std::string context);
Status EmptyClassError(std::string context);
Status AllMissingError(std::string context);
Status GeometryMismatchError(std::string context);

/// True for every degenerate-input diagnosis (kDegenerateInput itself plus
/// its preflight refinements). Recovery policies that treat "the data is
/// too small/broken for this op" uniformly should branch on this, not on
/// individual codes.
bool IsDegenerateInput(StatusCode code);

/// Value-or-Status. Implicitly constructible from either, so functions can
/// `return value;` and `return SingularError(...);` symmetrically.
/// Accessing value() on an error aborts (that is a programmer error: the
/// caller must test ok() first).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT: implicit
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT: implicit
    TSAUG_CHECK_MSG(status_.code() != StatusCode::kOk,
                    "StatusOr constructed from OK status without a value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    TSAUG_CHECK_MSG(ok(), "StatusOr::value() on error: %s",
                    status_.ToString().c_str());
    return *value_;
  }
  T& value() & {
    TSAUG_CHECK_MSG(ok(), "StatusOr::value() on error: %s",
                    status_.ToString().c_str());
    return *value_;
  }
  T&& value() && {
    TSAUG_CHECK_MSG(ok(), "StatusOr::value() on error: %s",
                    status_.ToString().c_str());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // OK iff value_ holds a value
  std::optional<T> value_;
};

}  // namespace tsaug::core

/// Early-returns the enclosing function with the Status of `expr` when it
/// is an error. `expr` is evaluated once.
#define TSAUG_RETURN_IF_ERROR(expr)                        \
  do {                                                     \
    ::tsaug::core::Status tsaug_status_tmp_ = (expr);      \
    if (!tsaug_status_tmp_.ok()) return tsaug_status_tmp_; \
  } while (0)

/// Aborts with the Status text when the Status `expr` is an error. The
/// library has no aborting wrappers: every fallible entry point returns a
/// Status or StatusOr. This macro (and StatusOr::value(), which aborts the
/// same way) is for the program edge only — tests, benches, tools and
/// setup on known-good data. `expr` is evaluated once.
#define TSAUG_CHECK_OK(expr)                                                \
  do {                                                                      \
    const ::tsaug::core::Status tsaug_check_ok_tmp_ = (expr);               \
    if (!tsaug_check_ok_tmp_.ok()) {                                        \
      std::fprintf(stderr, "TSAUG_CHECK_OK failed at %s:%d: %s: %s\n",      \
                   __FILE__, __LINE__, #expr,                               \
                   tsaug_check_ok_tmp_.ToString().c_str());                 \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

#endif  // TSAUG_CORE_STATUS_H_
