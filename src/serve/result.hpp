// Typed error results for the serving facade.
//
// The engine layers (core/, runtime/) treat misuse as programmer error and
// throw CheckError — the right contract for internal invariants, the wrong
// one for a public serving API where "this example belongs to another
// domain" is a routine caller mistake. serve::Monitor therefore reports
// user-facing failures as values: an Error carrying a stable ErrorCode plus
// a human-readable message, wrapped in a Result<T> the caller can branch
// on. Nothing on these paths aborts the service.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "common/check.hpp"

namespace omg::serve {

/// Stable, machine-checkable failure categories of the facade.
enum class ErrorCode {
  /// The builder's runtime geometry failed validation (0 shards,
  /// settle_lag >= window, 0-capacity queue, ...).
  kInvalidConfig,
  /// A stream handle that this Monitor never issued (default-constructed,
  /// or issued by a different Monitor instance).
  kInvalidHandle,
  /// An example's domain does not match the stream it was observed on.
  kWrongDomain,
  /// RegisterStream was given a name that is already registered.
  kDuplicateStream,
  /// The suite factory was null, threw, or produced an unusable suite.
  kInvalidSuite,
  /// A batch larger than one shard's whole queue capacity.
  kBatchTooLarge,
  /// A malformed argument not covered by a more specific code.
  kInvalidArgument,

  // Wire-protocol decode failures (src/net/, docs/WIRE_PROTOCOL.md). These
  // codes cross the wire inside ERROR frames as their integer values, so
  // new codes are appended here — never inserted — to keep old clients'
  // decoding stable.
  /// A frame (or its header) ended before its declared length.
  kTruncatedFrame,
  /// The frame does not start with the protocol magic.
  kBadMagic,
  /// The frame's wire-format version is not one this peer speaks.
  kBadVersion,
  /// The declared payload length exceeds the negotiated frame limit.
  kOversizedFrame,
  /// The payload checksum does not match the header's CRC32.
  kCrcMismatch,
  /// The header's frame type is not in the FrameType vocabulary.
  kUnknownFrameType,
  /// The header names a domain with no registered payload codec.
  kUnknownDomain,
  /// The payload bytes do not decode under the domain's codec.
  kMalformedPayload,
  /// HELLO named a tenant the server does not host.
  kUnknownTenant,
  /// HELLO carried the wrong token for its tenant.
  kAuthFailed,
  /// A data/control frame arrived before a successful HELLO.
  kNotAuthenticated,
  /// BIND_STREAM named a stream the server does not expose (or one this
  /// tenant may not write to).
  kUnknownStream,
  /// A data frame was refused by the tenant's admission quota.
  kQuotaExceeded,

  /// A file could not be opened, read, or written (trace record/replay).
  kIoError,
  /// A run broke a checked invariant: an accounting identity did not
  /// reconcile, or a repeated replay's flag digest diverged.
  kInvariantViolated,
};

/// Human-readable code name ("invalid_config", "wrong_domain", ...).
std::string_view ErrorCodeName(ErrorCode code);

/// One facade failure: a stable code plus a diagnostic message.
struct Error {
  ErrorCode code = ErrorCode::kInvalidArgument;
  std::string message;
};

/// Either a value or an Error — the facade's return type for every
/// user-facing operation that can fail without being a bug in omg itself.
template <typename T>
class Result {
 public:
  /// Success.
  Result(T value) : state_(std::move(value)) {}
  /// Failure.
  Result(Error error) : state_(std::move(error)) {}

  /// True when the operation succeeded.
  bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  /// The success value; throws CheckError when !ok() (reading the value of
  /// a failed Result *is* a programmer error).
  const T& value() const {
    if (!ok()) {
      throw common::CheckError("Result::value() on error: " +
                               std::get<Error>(state_).message);
    }
    return std::get<T>(state_);
  }

  /// Mutable access to the success value (move the value out of a
  /// known-good Result); throws CheckError when !ok().
  T& value() {
    if (!ok()) {
      throw common::CheckError("Result::value() on error: " +
                               std::get<Error>(state_).message);
    }
    return std::get<T>(state_);
  }

  /// The failure; throws CheckError when ok().
  const Error& error() const {
    common::Check(!ok(), "Result::error() on success");
    return std::get<Error>(state_);
  }

  /// The failure code; throws CheckError when ok().
  ErrorCode code() const { return error().code; }

 private:
  std::variant<T, Error> state_;
};

}  // namespace omg::serve
