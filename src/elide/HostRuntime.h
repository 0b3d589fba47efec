//===- elide/HostRuntime.h - Untrusted host side of SgxElide --------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The untrusted component SgxElide adds to an application (the paper's
/// "+50 LOC" on the UC side): implementations of the framework ocalls
/// (`elide_server_request`, `elide_read_file`, sealing persistence, quote
/// shuttling, debug printing) and the one-line `restore()` call a
/// developer makes after creating the enclave.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_ELIDE_HOSTRUNTIME_H
#define SGXELIDE_ELIDE_HOSTRUNTIME_H

#include "elide/Bridge.h"
#include "elide/Provisioner.h"
#include "server/Transport.h"
#include "sgx/Attestation.h"
#include "sgx/Enclave.h"
#include "support/AtomicFile.h"

#include <atomic>
#include <functional>
#include <optional>
#include <string>

namespace elide {

/// Application hook for ocalls at indices >= OcallAppBase.
using AppOcallHandler =
    std::function<Expected<Bytes>(uint32_t Index, BytesView Request)>;

// `RestoreStatus` itself lives in support/Error.h alongside the one
// shared retryable-vs-terminal table (`retryabilityOf`), so the restorer's
// and the transport's failure vocabularies classify in one place.

/// Human-readable name for a restore status (diagnostics).
const char *restoreStatusName(uint64_t Status);

/// Retry behavior for `ElideHost::restore`, the host's one retry loop:
/// transports send each request once, and the `Provisioner`'s failover
/// walk is routing, not retry. Because a failed restore never half-writes
/// the text section, a whole restore is always safe to retry and cures
/// every transient (a lost frame, a garbled reply, a stale session, a
/// refusal for time). The loop stops early on a terminal status, on a
/// terminal transport kind from the attempt's failed server request (the
/// shared table in support/Error.h), and at the host's request deadline.
struct RestorePolicy {
  /// Total restore attempts (1 = no retry).
  int MaxAttempts = 1;
  /// First pause between attempts; it doubles each retry up to 1 s, plus
  /// up to 50 % jitter (support/Backoff.h).
  int RetryDelayMs = 10;
  /// Seed for the jitter (distinct machines spread their retries).
  uint64_t JitterSeed = 1;
};

/// The untrusted SgxElide runtime for one enclave.
class ElideHost {
public:
  /// \param Server   connection to the authentication server (may be null:
  ///                 server requests then fail, exercising the paper's
  ///                 denial-of-service observation).
  /// \param Qe       the platform quoting enclave.
  ElideHost(Transport *Server, sgx::QuotingEnclave *Qe)
      : Server(Server), Qe(Qe) {}

  /// Supplies the shipped enclave.secret.data file contents (local-data
  /// mode).
  void setSecretDataFile(Bytes Contents) {
    SecretDataFile = std::move(Contents);
  }

  /// Uses \p Path to persist the sealed-secrets blob across launches;
  /// when unset, the blob is kept in memory (single-process lifetime).
  /// On-disk blobs are wrapped in a CRC-protected versioned container and
  /// written crash-consistently (temp file + fsync + atomic rename); a
  /// torn or corrupt blob found on read is quarantined to
  /// `Path + ".quarantine"` and the restore chain falls through to the
  /// remaining secret sources.
  void setSealedPath(std::string Path) { SealedPath = std::move(Path); }

  /// The sealed-cache path (empty when the blob is memory-only). The
  /// supervisor reads this to point its chaos injector at the right file.
  const std::string &sealedPath() const { return SealedPath; }

  /// Observation hook for cache persistence events (CacheWritten,
  /// CacheWriteFailed, CacheQuarantined) and for the restore loop
  /// stopping at its deadline (FailoverExhausted with DeadlineExceeded).
  /// Shares the ProvisionEvent vocabulary with `Provisioner`, so one
  /// callback can watch the whole chain.
  void setEventCallback(ProvisionEventCallback Callback) {
    EventCallback = std::move(Callback);
  }

  /// Second, independent observer slot: the supervisor taps cache events
  /// (to classify CacheQuarantined as a contained fault) without stealing
  /// the application's callback. Both observers see every event.
  void setEventTap(ProvisionEventCallback Tap) { EventTap = std::move(Tap); }

  /// Test hook: injects a simulated crash into the next sealed-cache
  /// write (see AtomicCrashPoint). The chaos suite uses this to prove a
  /// crash between temp-file write and rename never corrupts the cache.
  void setSealedCrashPoint(AtomicCrashPoint Point) {
    SealedCrashPoint = Point;
  }

  /// Collects t_debug_print output (tests and game frontends read this).
  std::string &debugOutput() { return DebugOutput; }

  /// Registers the application's own ocalls (indices >= OcallAppBase).
  void setAppOcallHandler(AppOcallHandler Handler) {
    AppHandler = std::move(Handler);
  }

  /// Stamps every outgoing server request with \p Class (and, when
  /// \p DeadlineMs > 0, an end-to-end deadline) by wrapping it in a
  /// request envelope (server/Protocol.h). Default class with no
  /// deadline sends bare frames, byte-identical to pre-envelope hosts.
  /// The supervisor marks recovery-time restores Sheddable through this
  /// hook so a rebuild storm never starves live traffic. Thread-safe.
  void setRequestClass(Criticality Class, uint32_t DeadlineMs = 0) {
    ReqClass.store(static_cast<uint8_t>(Class), std::memory_order_relaxed);
    ReqDeadlineMs.store(DeadlineMs, std::memory_order_relaxed);
  }

  /// The current outgoing-request criticality class.
  Criticality requestClass() const {
    return static_cast<Criticality>(ReqClass.load(std::memory_order_relaxed));
  }

  /// The current outgoing-request deadline (0 = none).
  uint32_t requestDeadlineMs() const {
    return ReqDeadlineMs.load(std::memory_order_relaxed);
  }

  /// Installs the trusted library and this host's ocall dispatcher into
  /// \p E. Call once after loading the enclave.
  void attach(sgx::Enclave &E);

  /// The paper's single developer-facing call: invokes the elide_restore
  /// ecall. Returns the restorer's status (0 = success; see
  /// RestoreStatus).
  Expected<uint64_t> restore(sgx::Enclave &E);

  /// Like restore(), but keeps attempting under \p Policy while the
  /// restorer reports a retryable status. Returns the final status (0
  /// when some attempt succeeded). With a request deadline set
  /// (`setRequestClass`), no attempt starts and no wait is slept past it
  /// from the call; stopping for time reports a FailoverExhausted event
  /// carrying `TransportErrc::DeadlineExceeded`. Ecall traps abort
  /// immediately -- a trapped restorer is a broken build, not a network
  /// hiccup.
  Expected<uint64_t> restore(sgx::Enclave &E, const RestorePolicy &Policy);

private:
  Expected<Bytes> handleOcall(uint32_t Index, BytesView Request);
  Expected<Bytes> serverRequest(BytesView Request);
  Expected<Bytes> readSealed();
  Expected<Bytes> writeSealed(BytesView Request);
  void emit(const ProvisionEvent &Event);

  Transport *Server;
  sgx::QuotingEnclave *Qe;
  Bytes SecretDataFile;
  Bytes SealedBlob;
  std::string SealedPath;
  std::string DebugOutput;
  AppOcallHandler AppHandler;
  ProvisionEventCallback EventCallback;
  ProvisionEventCallback EventTap;
  AtomicCrashPoint SealedCrashPoint = AtomicCrashPoint::None;
  std::atomic<uint8_t> ReqClass{static_cast<uint8_t>(Criticality::Default)};
  std::atomic<uint32_t> ReqDeadlineMs{0};
  /// The transport kind of the current restore attempt's failed server
  /// request (None for an untagged failure); empty while none failed.
  std::optional<TransportErrc> RequestFailure;
};

} // namespace elide

#endif // SGXELIDE_ELIDE_HOSTRUNTIME_H
