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

#include <chrono>
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
/// shared table in support/Error.h), and at the policy's deadline.
struct RestorePolicy {
  /// Total restore attempts (1 = no retry).
  int MaxAttempts = 1;
  /// First pause between attempts; it doubles each retry up to 1 s, plus
  /// up to 50 % jitter (support/Backoff.h).
  int RetryDelayMs = 10;
  /// Seed for the jitter (distinct machines spread their retries).
  uint64_t JitterSeed = 1;
  /// Budget for the whole restore, counted from the call (0 = none). No
  /// attempt starts and no wait is slept past it, and every request
  /// carries the budget left when it is sent.
  uint32_t DeadlineMs = 0;
  /// Criticality class stamped on every request. With `Default` and no
  /// deadline the requests go out as bare frames, byte-identical to
  /// pre-envelope hosts.
  Criticality Class = Criticality::Default;
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

  /// Uses \p Path as the one store of the sealed-secrets blob across
  /// launches; with no path the blob is kept in memory (single-process
  /// lifetime). On-disk blobs are wrapped in a CRC-protected versioned
  /// container and written crash-consistently (temp file + fsync + atomic
  /// rename). A missing file reads as an empty cache; a torn or corrupt
  /// one is quarantined to `Path + ".quarantine"` and reads as empty too,
  /// so the restore chain falls through to the remaining secret sources
  /// and the next successful restore writes the file again.
  void setSealedPath(std::string Path) { SealedPath = std::move(Path); }

  /// The sealed-cache path (empty when the blob is memory-only). The
  /// supervisor reads this to point its chaos injector at the right file.
  const std::string &sealedPath() const { return SealedPath; }

  /// Sealed-cache files quarantined so far. The supervisor reads it
  /// around each restore pass to classify a quarantine as a contained
  /// fault.
  size_t sealedQuarantines() const { return SealedQuarantines; }

  /// Observation hook for cache persistence events (CacheWritten,
  /// CacheWriteFailed, CacheQuarantined) and for a restore ended by its
  /// deadline (FailoverExhausted with DeadlineExceeded). Shares the
  /// ProvisionEvent vocabulary with `Provisioner`, so one callback can
  /// watch the whole chain.
  void setEventCallback(ProvisionEventCallback Callback) {
    EventCallback = std::move(Callback);
  }

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

  /// Installs the trusted library and this host's ocall dispatcher into
  /// \p E. Call once after loading the enclave.
  void attach(sgx::Enclave &E);

  /// The paper's single developer-facing call: invokes the elide_restore
  /// ecall once, sending its requests as bare frames. Returns the
  /// restorer's status (0 = success; see RestoreStatus).
  Expected<uint64_t> restore(sgx::Enclave &E);

  /// Like restore(), but keeps attempting under \p Policy while the
  /// restorer reports a retryable status. Returns the final status (0
  /// when some attempt succeeded). Each request carries `Policy.Class`
  /// and the deadline budget left at send time. No attempt starts and no
  /// wait is slept past the deadline; a request with under 1 ms left is
  /// not sent, and one that fails once the budget is spent fails as
  /// `TransportErrc::DeadlineExceeded`. Stopping for time reports one
  /// FailoverExhausted event carrying `DeadlineExceeded`. Ecall traps
  /// abort immediately -- a trapped restorer is a broken build, not a
  /// network hiccup.
  Expected<uint64_t> restore(sgx::Enclave &E, const RestorePolicy &Policy);

private:
  using Clock = std::chrono::steady_clock;

  Expected<uint64_t> retryLoop(sgx::Enclave &E, const RestorePolicy &Policy);
  Expected<Bytes> handleOcall(uint32_t Index, BytesView Request);
  Expected<Bytes> serverRequest(BytesView Request);
  Expected<Bytes> readSealed();
  Expected<Bytes> writeSealed(BytesView Request);
  void emit(const ProvisionEvent &Event);
  /// Reports the restore's end for time (one FailoverExhausted event
  /// carrying DeadlineExceeded) and returns the matching error.
  Error stopForTime(const std::string &Why);

  Transport *Server;
  sgx::QuotingEnclave *Qe;
  Bytes SecretDataFile;
  /// The sealed blob of a host with no path (a path is the one store).
  Bytes SealedBlob;
  std::string SealedPath;
  size_t SealedQuarantines = 0;
  std::string DebugOutput;
  AppOcallHandler AppHandler;
  ProvisionEventCallback EventCallback;
  AtomicCrashPoint SealedCrashPoint = AtomicCrashPoint::None;
  /// The policy of the `restore(E, Policy)` in progress (null otherwise)
  /// and the moment its deadline lapses; each server request reads both.
  const RestorePolicy *Active = nullptr;
  Clock::time_point Stop;
  /// The transport kind of the current restore attempt's failed server
  /// request (None for an untagged failure); empty while none failed.
  std::optional<TransportErrc> RequestFailure;
};

} // namespace elide

#endif // SGXELIDE_ELIDE_HOSTRUNTIME_H
