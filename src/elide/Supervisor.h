//===- elide/Supervisor.h - Enclave lifecycle supervision -----------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The enclave lifecycle supervisor: a containment layer between the host
/// application and a protected enclave that makes enclave faults a typed,
/// recoverable condition instead of a process obituary.
///
/// Every supervised enclave moves through an explicit state machine:
///
///     Created -> Loaded -> Restored -> Serving
///                   ^                     |
///                   |                  (fault)
///                   |                     v
///              Recovering <- Quarantined <- Faulted
///
/// and the supervisor enforces orderliness at the boundary: an ecall into
/// still-redacted code (before elide_restore ran), a re-entrant ecall from
/// inside an ocall handler, or a restore on an unbuilt enclave is rejected
/// with a typed `LifecycleErrc` error -- it never reaches the VM.
///
/// Faults are classified into a small taxonomy (`EnclaveFaultClass`):
/// VM traps, instruction-budget runaways, restore failures, and
/// sealed-cache corruption (the one *contained* class -- the host
/// quarantines the blob and falls through to the server, so no teardown
/// is needed). Each non-contained fault quarantines the enclave behind a
/// bounded, jittered backoff; the first caller past the deadline drives
/// recovery inline: tear down, rebuild from the factory, re-restore from
/// the sealed cache or the provisioning chain. Consecutive faults count
/// against a crash-loop breaker; past `MaxCrashLoops` the enclave is
/// retired for good and callers get a terminal `CrashLoop` error.
///
/// Recovery is caller-driven (no supervisor thread): deterministic under
/// test, trivially TSan-clean, and the paper's restore path is reused
/// unchanged -- recovery *is* sanitize-load-attest-restore, just again.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_ELIDE_SUPERVISOR_H
#define SGXELIDE_ELIDE_SUPERVISOR_H

#include "elide/HostRuntime.h"

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace elide {

namespace sgx {
class EnclaveChaos;
} // namespace sgx

/// Where a supervised enclave is in its life. See the file comment for
/// the transition diagram.
enum class LifecycleState {
  Created,     ///< Supervisor exists; no enclave built yet.
  Loaded,      ///< Enclave built and attached; text still redacted.
  Restored,    ///< elide_restore succeeded; secrets are back in place.
  Serving,     ///< At least one application ecall has completed.
  Faulted,     ///< A fault was just classified (transient, pre-quarantine).
  Quarantined, ///< Waiting out the recovery backoff (or retired for good).
  Recovering,  ///< Teardown + rebuild + restore in progress.
};

/// Human-readable state name (diagnostics, `sgxelide run` output).
const char *lifecycleStateName(LifecycleState State);

/// Human-readable errc name (test output, exit-code tables).
const char *lifecycleErrcName(LifecycleErrc Errc);

/// Creates a lifecycle failure tagged with \p Errc (see `Error::code`).
Error makeLifecycleError(LifecycleErrc Errc, std::string Message);

/// The lifecycle errc of \p E (None for untagged/foreign errors).
LifecycleErrc lifecycleErrcOf(const Error &E);

/// Same, reading the code of an errored `Expected` without consuming it.
template <typename T> LifecycleErrc lifecycleErrcOf(const Expected<T> &E) {
  int Code = E.errorCode();
  return (Code >= static_cast<int>(LifecycleErrc::NotLoaded) &&
          Code <= static_cast<int>(LifecycleErrc::AlreadyLoaded))
             ? static_cast<LifecycleErrc>(Code)
             : LifecycleErrc::None;
}

/// The supervisor's fault taxonomy. Every injected or organic fault maps
/// to exactly one class; the recovery bench reports containment per class.
enum class EnclaveFaultClass {
  VmTrap,                ///< The SVM trapped (illegal instruction, ...).
  BudgetRunaway,         ///< The instruction-budget watchdog fired.
  RestoreFailure,        ///< Restore errored or ended in a bad status.
  SealedCacheCorruption, ///< Contained: blob quarantined, chain fell through.
};

/// Human-readable class name.
const char *enclaveFaultClassName(EnclaveFaultClass Class);

/// Builds a fresh (sanitized, unrestored) enclave. The supervisor calls
/// this at `load` and again on every recovery rebuild.
using EnclaveFactory =
    std::function<Expected<std::unique_ptr<sgx::Enclave>>()>;

/// Supervision knobs.
struct SupervisorConfig {
  /// Consecutive non-contained faults tolerated before the enclave is
  /// retired for good (the crash-loop circuit breaker).
  int MaxCrashLoops = 5;
  /// Quarantine backoff before the first recovery attempt; doubles per
  /// consecutive fault up to 2 s, plus up to 50 % jitter
  /// (support/Backoff.h). 0 = recover on the next call (tests).
  long long RecoveryBackoffBaseMs = 50;
  /// Seed for the quarantine jitter.
  uint64_t JitterSeed = 1;
  /// Restore policy the host's retry loop runs for the initial restore
  /// and, with its class set to Sheddable, for every recovery restore.
  RestorePolicy Restore;
};

/// Details of the most recent classified fault (`sgxelide run` prints the
/// trap PC and backend from here).
struct FaultRecord {
  EnclaveFaultClass Class = EnclaveFaultClass::VmTrap;
  TrapKind Trap = TrapKind::Halt; ///< Meaningful for VmTrap/BudgetRunaway.
  uint64_t Pc = 0;                ///< Trap PC (VmTrap/BudgetRunaway).
  VmBackendKind Backend = VmBackendKind::Switch; ///< Engine that trapped.
  uint64_t Generation = 0;        ///< Enclave generation that faulted.
  std::string Message;
};

/// Supervision counters. `RecoveryMs` holds one duration sample per
/// successful recovery (the ablation bench derives p50/p95 from it).
struct SupervisorStats {
  uint64_t Generation = 0;
  size_t EcallsAttempted = 0;
  size_t EcallsServed = 0;
  size_t OrderlinessRejections = 0; ///< NotLoaded/NotRestored/Reentrant/...
  size_t RetryLaterRejections = 0;  ///< Quarantine + retired rejections.
  size_t StaleTicketRejections = 0; ///< StaleGeneration rejections.
  size_t FaultsVmTrap = 0;
  size_t FaultsBudgetRunaway = 0;
  size_t FaultsRestoreFailure = 0;
  size_t FaultsSealedCacheCorruption = 0; ///< Contained (no teardown).
  size_t Recoveries = 0;        ///< Successful rebuild+restore cycles.
  size_t RecoveryFailures = 0;  ///< Recovery attempts that re-quarantined.
  bool CrashLoopTripped = false;
  std::vector<long long> RecoveryMs;
};

/// A session's handle onto one enclave *generation*. Ecalls made through
/// a ticket whose generation has since been torn down are rejected with
/// `StaleGeneration` -- the session must re-attest against the rebuilt
/// enclave (its MRENCLAVE is the same, but its memory is not).
struct SupervisorTicket {
  uint64_t Generation = 0;
};

/// Supervises one enclave: builds it via the factory, attaches the elide
/// host, gates every ecall through the lifecycle state machine, and
/// recycles the enclave when it faults. Thread-safe; ecalls from separate
/// threads serialize (the SVM is single-threaded), re-entrant ecalls from
/// the *same* thread are rejected as orderliness violations.
class EnclaveSupervisor {
public:
  /// \p Host must outlive the supervisor; the supervisor reads its
  /// quarantine count after each restore pass.
  EnclaveSupervisor(EnclaveFactory Factory, ElideHost &Host,
                    SupervisorConfig Config = {});

  /// Attaches a fault injector consulted before every ecall and restore
  /// pass (nullptr detaches). The injector must outlive the supervisor.
  void setChaos(sgx::EnclaveChaos *Injector) { Chaos = Injector; }

  /// Overrides the millisecond clock used for quarantine deadlines and
  /// recovery timing (tests step time instead of sleeping).
  void setClock(std::function<long long()> NowMs) {
    Clock = std::move(NowMs);
  }

  /// Created -> Loaded: builds the enclave and attaches the host.
  /// AlreadyLoaded when a live enclave exists.
  Error load();

  /// Loaded -> Restored: runs `ElideHost::restore(E, Config.Restore)`,
  /// the host's one retry loop (chaos can fail the whole pass). NotLoaded
  /// before `load`.
  Error restoreNow();

  /// Convenience: `load()` then `restoreNow()`.
  Error start();

  /// Invokes an application ecall through the lifecycle gate. Lifecycle
  /// violations and quarantine return typed `LifecycleErrc` errors; VM
  /// traps are classified, quarantine the enclave, and surface as
  /// QuarantinedRetryLater/CrashLoop (never as a raw trap).
  Expected<sgx::EcallResult> ecall(const std::string &Name, BytesView Input,
                                   size_t OutputCapacity);

  /// Generation-checked variant for sessions: rejects tickets from a
  /// torn-down generation with StaleGeneration before anything runs.
  Expected<sgx::EcallResult> ecall(const SupervisorTicket &Ticket,
                                   const std::string &Name, BytesView Input,
                                   size_t OutputCapacity);

  /// Opens a session against the current generation. Fails with the same
  /// typed errors as `ecall` when the enclave cannot serve.
  Expected<SupervisorTicket> openSession();

  /// Forces a recovery attempt if one is due (quarantined and past the
  /// backoff deadline). No-op success in healthy states; typed error when
  /// quarantine holds or the breaker tripped.
  Error recoverNow();

  LifecycleState state() const { return State.load(); }
  uint64_t generation() const { return Generation.load(); }
  SupervisorStats stats() const;
  std::optional<FaultRecord> lastFault() const;

  /// The live enclave (nullptr unless Loaded/Restored/Serving). The tool
  /// reads identity and backend through this; treat as read-only.
  sgx::Enclave *enclave() { return Live.get(); }

private:
  /// Shared body of both `ecall` overloads (\p Ticket may be null).
  Expected<sgx::EcallResult> ecallImpl(const SupervisorTicket *Ticket,
                                       const std::string &Name,
                                       BytesView Input,
                                       size_t OutputCapacity);

  /// Rejects when the state machine forbids an ecall right now; drives
  /// lazy recovery when a quarantine deadline has passed. Called with
  /// `Mutex` held.
  Error gateEcallLocked();

  /// Classifies and records a fault, then quarantines (or trips the
  /// breaker). Returns the typed error the caller should surface. Called
  /// with `Mutex` held.
  Error faultLocked(EnclaveFaultClass Class, TrapKind Trap, uint64_t Pc,
                    const std::string &Message);

  /// Records a fault in the stats and `lastFault` without transitioning
  /// state. Called with `Mutex` held.
  void recordFaultLocked(EnclaveFaultClass Class, TrapKind Trap, uint64_t Pc,
                         const std::string &Message);

  /// Retires the enclave for good (crash loop / terminal restore) and
  /// returns the typed error. Called with `Mutex` held.
  Error retireLocked(LifecycleErrc Errc, const std::string &Message);

  /// Attributes a typed rejection to its stats bucket.
  void countRejection(LifecycleErrc Errc);

  /// Tear down + rebuild + restore. Called with `Mutex` held.
  Error recoverLocked();

  /// One supervised restore pass: consults chaos once, runs the host's
  /// retry loop under \p Policy, and records each sealed-cache quarantine
  /// the pass caused. Returns the final status word. Called with `Mutex`
  /// held on a live enclave.
  Expected<uint64_t> restorePassLocked(const RestorePolicy &Policy);

  long long nowMs() const;

  EnclaveFactory Factory;
  ElideHost &Host;
  SupervisorConfig Config;
  sgx::EnclaveChaos *Chaos = nullptr;
  std::function<long long()> Clock;

  /// Serializes lifecycle transitions and ecall execution.
  std::mutex Mutex;
  /// Thread currently inside `ecall` (re-entrancy detection happens
  /// before the mutex, so a re-entrant call errors instead of
  /// deadlocking).
  std::atomic<std::thread::id> EcallOwner{};

  std::atomic<LifecycleState> State{LifecycleState::Created};
  std::atomic<uint64_t> Generation{0};
  std::unique_ptr<sgx::Enclave> Live; ///< Guarded by Mutex.
  int ConsecutiveCrashes = 0;         ///< Guarded by Mutex.
  long long QuarantineUntilMs = 0;    ///< Guarded by Mutex.
  bool Retired = false;               ///< Guarded by Mutex (breaker/terminal).
  LifecycleErrc RetiredErrc = LifecycleErrc::CrashLoop; ///< Guarded by Mutex.
  Drbg Jitter;                        ///< Guarded by Mutex.

  mutable std::mutex StatsMutex; ///< Guards Stats and LastFault only.
  SupervisorStats Stats;
  std::optional<FaultRecord> LastFault;
};

} // namespace elide

#endif // SGXELIDE_ELIDE_SUPERVISOR_H
