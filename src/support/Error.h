//===- support/Error.h - Lightweight recoverable error handling ----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small `Error` / `Expected<T>` pair modeled on LLVM's recoverable error
/// scheme. Errors carry a message string; `Expected<T>` holds either a value
/// or an error. Unlike LLVM's version these do not abort on unchecked
/// destruction -- they are plain value types -- but the usage idioms
/// (early-exit on failure, `takeError`, `ELIDE_TRY`) are the same.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SUPPORT_ERROR_H
#define SGXELIDE_SUPPORT_ERROR_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace elide {

/// A recoverable error: either success (empty) or a failure message,
/// optionally tagged with a numeric code so callers can branch on the
/// failure kind without parsing the message (subsystems define their own
/// code spaces; 0 means "uncategorized").
///
/// Converts to `true` when it holds a failure, enabling
/// `if (Error E = mayFail()) return E;`.
class Error {
public:
  /// Constructs a success value.
  Error() = default;

  /// Constructs a failure carrying \p Message.
  static Error failure(std::string Message) {
    Error E;
    E.Message = std::move(Message);
    return E;
  }

  /// Constructs a failure carrying \p Message tagged with \p Code.
  static Error failure(int Code, std::string Message) {
    Error E = failure(std::move(Message));
    E.Code = Code;
    return E;
  }

  /// Constructs a success value (readability alias for `Error()`).
  static Error success() { return Error(); }

  /// Returns true when this is a failure.
  explicit operator bool() const { return Message.has_value(); }

  /// Returns the failure message. Must only be called on failures.
  const std::string &message() const {
    assert(Message && "message() on a success Error");
    return *Message;
  }

  /// Returns the failure's numeric code (0 when untagged or success).
  int code() const { return Code; }

private:
  std::optional<std::string> Message;
  int Code = 0;
};

/// Creates a failure `Error` from a message.
inline Error makeError(std::string Message) {
  return Error::failure(std::move(Message));
}

/// Creates a code-tagged failure `Error`.
inline Error makeError(int Code, std::string Message) {
  return Error::failure(Code, std::move(Message));
}

/// Either a `T` or an `Error`. Mirrors `llvm::Expected`.
///
/// Converts to `true` on success; the value is reached via `*`/`->` and the
/// error via `takeError()`.
template <typename T> class Expected {
public:
  /// Constructs a success value.
  Expected(T Value) : Storage(std::move(Value)) {}

  /// Constructs a failure. \p E must hold an error.
  Expected(Error E) : Storage(std::move(E)) {
    assert(std::get<Error>(Storage) && "Expected constructed from success");
  }

  /// Returns true when a value is present.
  explicit operator bool() const { return std::holds_alternative<T>(Storage); }

  /// Accesses the contained value. Must only be called on success.
  T &operator*() {
    assert(*this && "dereferencing an errored Expected");
    return std::get<T>(Storage);
  }
  const T &operator*() const {
    assert(*this && "dereferencing an errored Expected");
    return std::get<T>(Storage);
  }
  T *operator->() { return &**this; }
  const T *operator->() const { return &**this; }

  /// Moves the contained error out. Returns success if a value is present.
  Error takeError() {
    if (*this)
      return Error::success();
    return std::move(std::get<Error>(Storage));
  }

  /// Returns the error message without consuming the error.
  const std::string &errorMessage() const {
    assert(!*this && "errorMessage() on a success Expected");
    return std::get<Error>(Storage).message();
  }

  /// Returns the error's numeric code without consuming the error (0 when
  /// untagged).
  int errorCode() const {
    assert(!*this && "errorCode() on a success Expected");
    return std::get<Error>(Storage).code();
  }

  /// Moves the value out. Must only be called on success.
  T takeValue() {
    assert(*this && "takeValue() on an errored Expected");
    return std::move(std::get<T>(Storage));
  }

private:
  std::variant<T, Error> Storage;
};

//===----------------------------------------------------------------------===//
// Shared failure vocabularies and the retryable-vs-terminal table
//===----------------------------------------------------------------------===//
//
// The failure vocabularies that cross subsystem boundaries -- the
// restorer's status word, the transport's typed error kind, and the
// supervisor's lifecycle errc -- are defined here, at the bottom of the
// dependency graph, so that exactly one classification table can see them
// all. Every consumer of "should I try again?" routes through
// `retryabilityOf`: the one retry loop (`ElideHost::restore` under a
// `RestorePolicy`, which the `EnclaveSupervisor` also runs for its
// recoveries) and the observers of the `Provisioner`'s failover walk.
//
// The switches below are deliberately `default:`-free: adding a status or
// an errc without deciding its retryability is a compile-time warning
// (-Wswitch / -Wreturn-type), not a silent fall-through.

/// Statuses the elide_restore ecall returns. Every nonzero status leaves
/// the enclave sanitized-but-retryable (the restorer never writes a
/// partial buffer over the text section), so a later restore() on the
/// same enclave can still succeed.
enum RestoreStatus : uint64_t {
  RestoreOk = 0,
  /// Secrets could not be obtained (missing data file, failed unseal +
  /// failed exchange, bad local decrypt).
  RestoreNoSecrets = 1,
  /// The exchange produced fewer/more bytes than the metadata promised.
  RestoreShortSecrets = 2,
  /// The quoting enclave was unavailable.
  RestoreQuoteFailed = 10,
  /// The server round trip itself failed (dead/unreachable server -- the
  /// paper's denial-of-service case).
  RestoreServerUnreachable = 11,
  /// The server answered but rejected the attestation.
  RestoreRejected = 12,
  /// The metadata exchange failed (decrypt error / server ERROR frame).
  RestoreMetaFetchFailed = 21,
  /// The metadata arrived but did not parse.
  RestoreMetaParseFailed = 22,
  /// The remote data exchange failed or returned the wrong byte count
  /// (dropped connection, server ERROR frame, exhausted session budget).
  RestoreDataFetchFailed = 23,
};

/// Failure kinds surfaced by the socket transports, carried as the
/// `Error::code()` of transport errors so callers can branch on the kind
/// (retry, re-attest, give up) without parsing messages.
enum class TransportErrc : int {
  None = 0,
  ConnectFailed = 101,    ///< Connection refused / unreachable.
  ConnectTimeout = 102,   ///< Connect exceeded its deadline.
  ReadTimeout = 103,      ///< A read exceeded its deadline.
  WriteTimeout = 104,     ///< A write exceeded its deadline.
  PeerClosed = 105,       ///< Peer closed mid-frame.
  FrameTooLarge = 106,    ///< Length prefix exceeds the frame cap.
  BadAddress = 107,       ///< Unparseable server address.
  // 108 stays unassigned, so a logged code keeps one meaning.
  InjectedFault = 109,    ///< A FaultInjectingTransport ate the exchange.
  Overloaded = 110,       ///< The server shed load (OVERLOADED frame).
  BreakerOpen = 111,      ///< Circuit breaker refused the endpoint.
  AllEndpointsFailed = 112, ///< Every endpoint in a failover chain failed.
  DeadlineExceeded = 113, ///< The request's end-to-end deadline lapsed.
  RetryBudgetExhausted = 114, ///< The chain-wide retry budget ran dry.
};

/// The last (largest) TransportErrc value; the errc-range checks in
/// Transport.h/.cpp use this bound so adding a code cannot silently fall
/// outside them.
constexpr TransportErrc TransportErrcLast = TransportErrc::RetryBudgetExhausted;

/// The two-way verdict of the shared table: `Retryable` failures may be
/// cured by a fresh attempt; `Terminal` ones will lose the same way every
/// time, so retry loops must stop (and, in particular, must not hammer a
/// server that already rejected them).
enum class Retryability { Retryable, Terminal };

/// The restore-status row of the table. Transient statuses (short reads,
/// dead quoting enclave, unreachable or erroring server) are retryable;
/// verdicts (missing secrets, rejected attestation, unparseable metadata)
/// are terminal. Success classifies as Terminal: there is nothing left to
/// retry.
constexpr Retryability retryabilityOf(RestoreStatus Status) {
  switch (Status) {
  case RestoreShortSecrets:
  case RestoreQuoteFailed:
  case RestoreServerUnreachable:
  case RestoreMetaFetchFailed:
  case RestoreDataFetchFailed:
    return Retryability::Retryable;
  case RestoreOk:
  case RestoreNoSecrets:
  case RestoreRejected:
  case RestoreMetaParseFailed:
    return Retryability::Terminal;
  }
  return Retryability::Terminal; // Unreachable for in-range values.
}

/// The transport-errc row of the table. Timeouts, refused connections,
/// dropped peers, injected faults, and backpressure verdicts are
/// retryable; structural failures (bad address, oversized frame), a
/// lapsed deadline (there is no time left to spend on another attempt),
/// an empty chain-wide retry budget (another attempt is exactly what the
/// budget forbids), and an untagged failure (no server at all) are
/// terminal.
constexpr Retryability retryabilityOf(TransportErrc Errc) {
  switch (Errc) {
  case TransportErrc::ConnectFailed:
  case TransportErrc::ConnectTimeout:
  case TransportErrc::ReadTimeout:
  case TransportErrc::WriteTimeout:
  case TransportErrc::PeerClosed:
  case TransportErrc::InjectedFault:
  case TransportErrc::Overloaded:
  case TransportErrc::BreakerOpen:
  case TransportErrc::AllEndpointsFailed:
    return Retryability::Retryable;
  case TransportErrc::None:
  case TransportErrc::FrameTooLarge:
  case TransportErrc::BadAddress:
  case TransportErrc::DeadlineExceeded:
  case TransportErrc::RetryBudgetExhausted:
    return Retryability::Terminal;
  }
  return Retryability::Terminal; // Unreachable for in-range values.
}

static_assert(retryabilityOf(TransportErrc::DeadlineExceeded) ==
                  Retryability::Terminal,
              "a lapsed deadline must stop retry loops");
static_assert(retryabilityOf(TransportErrc::RetryBudgetExhausted) ==
                  Retryability::Terminal,
              "an empty retry budget must stop retry loops");
static_assert(retryabilityOf(TransportErrc::Overloaded) ==
                  Retryability::Retryable,
              "backpressure is transient; failover layers may move on");

/// Maps a raw restore status word (as the ecall returns it) onto the enum,
/// or nullopt for values no table row covers.
constexpr std::optional<RestoreStatus> restoreStatusFromRaw(uint64_t Raw) {
  switch (Raw) {
  case RestoreOk:
  case RestoreNoSecrets:
  case RestoreShortSecrets:
  case RestoreQuoteFailed:
  case RestoreServerUnreachable:
  case RestoreRejected:
  case RestoreMetaFetchFailed:
  case RestoreMetaParseFailed:
  case RestoreDataFetchFailed:
    return static_cast<RestoreStatus>(Raw);
  }
  return std::nullopt;
}

/// Whether retrying a restore that ended in \p Status can plausibly change
/// the outcome. Statuses outside the table (version skew, corrupted
/// return) classify as terminal: an unrecognized verdict is a bug to
/// surface, not a transient to spin on.
constexpr bool isRetryableRestoreStatus(uint64_t Status) {
  std::optional<RestoreStatus> Known = restoreStatusFromRaw(Status);
  return Known && retryabilityOf(*Known) == Retryability::Retryable;
}

/// True for transport failures a fresh attempt may cure.
constexpr bool isRetryableTransportErrc(TransportErrc Errc) {
  return retryabilityOf(Errc) == Retryability::Retryable;
}

/// Failure kinds surfaced by the `EnclaveSupervisor` lifecycle state
/// machine, carried as `Error::code()` so callers (the auth server, the
/// tool, sessions holding a stale ticket) can branch without parsing
/// messages. Codes live above the transport space (101-114).
enum class LifecycleErrc : int {
  None = 0,
  NotLoaded = 301,       ///< Ecall/restore before the enclave was built.
  NotRestored = 302,     ///< Ecall into still-redacted (sanitized) code.
  ReentrantEcall = 303,  ///< Ocall handler called back into the enclave.
  QuarantinedRetryLater = 304, ///< Recovering; retry after the backoff.
  CrashLoop = 305,       ///< Crash-loop breaker tripped; enclave retired.
  StaleGeneration = 306, ///< Ticket from a torn-down enclave generation.
  TerminalRestore = 307, ///< Recovery restore ended in a terminal status.
  AlreadyLoaded = 308,   ///< load() on a live enclave.
};

/// The lifecycle row of the table. A quarantined enclave heals itself
/// (retry after the hinted backoff) and a stale ticket is cured by
/// re-attesting, so both are retryable; ordering violations and a tripped
/// crash-loop breaker will lose the same way every time.
constexpr Retryability retryabilityOf(LifecycleErrc Errc) {
  switch (Errc) {
  case LifecycleErrc::QuarantinedRetryLater:
  case LifecycleErrc::StaleGeneration:
    return Retryability::Retryable;
  case LifecycleErrc::None:
  case LifecycleErrc::NotLoaded:
  case LifecycleErrc::NotRestored:
  case LifecycleErrc::ReentrantEcall:
  case LifecycleErrc::CrashLoop:
  case LifecycleErrc::TerminalRestore:
  case LifecycleErrc::AlreadyLoaded:
    return Retryability::Terminal;
  }
  return Retryability::Terminal; // Unreachable for in-range values.
}

/// True for lifecycle failures a later attempt (after backoff or
/// re-attestation) may cure.
constexpr bool isRetryableLifecycleErrc(LifecycleErrc Errc) {
  return retryabilityOf(Errc) == Retryability::Retryable;
}

} // namespace elide

#define ELIDE_CONCAT_IMPL(A, B) A##B
#define ELIDE_CONCAT(A, B) ELIDE_CONCAT_IMPL(A, B)
#define ELIDE_TRY_IMPL(Decl, Expr, Tmp)                                        \
  auto Tmp = (Expr);                                                           \
  if (!Tmp)                                                                    \
    return Tmp.takeError();                                                    \
  Decl = Tmp.takeValue()

/// Propagates the error from an `Expected` expression, binding the value on
/// success: `ELIDE_TRY(auto V, mayFail());`
#define ELIDE_TRY(Decl, Expr)                                                  \
  ELIDE_TRY_IMPL(Decl, Expr, ELIDE_CONCAT(ElideTryTmp, __LINE__))

#endif // SGXELIDE_SUPPORT_ERROR_H
