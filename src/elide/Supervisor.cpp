//===- elide/Supervisor.cpp - Enclave lifecycle supervision ---------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "elide/Supervisor.h"

#include "sgx/EnclaveChaos.h"
#include "support/Backoff.h"

#include <chrono>

using namespace elide;

namespace {

/// Ceiling of the doubling quarantine backoff.
constexpr long long RecoveryBackoffMaxMs = 2000;

} // namespace

const char *elide::lifecycleStateName(LifecycleState State) {
  switch (State) {
  case LifecycleState::Created:
    return "created";
  case LifecycleState::Loaded:
    return "loaded";
  case LifecycleState::Restored:
    return "restored";
  case LifecycleState::Serving:
    return "serving";
  case LifecycleState::Faulted:
    return "faulted";
  case LifecycleState::Quarantined:
    return "quarantined";
  case LifecycleState::Recovering:
    return "recovering";
  }
  return "?";
}

const char *elide::lifecycleErrcName(LifecycleErrc Errc) {
  switch (Errc) {
  case LifecycleErrc::None:
    return "none";
  case LifecycleErrc::NotLoaded:
    return "not-loaded";
  case LifecycleErrc::NotRestored:
    return "not-restored";
  case LifecycleErrc::ReentrantEcall:
    return "reentrant-ecall";
  case LifecycleErrc::QuarantinedRetryLater:
    return "quarantined-retry-later";
  case LifecycleErrc::CrashLoop:
    return "crash-loop";
  case LifecycleErrc::StaleGeneration:
    return "stale-generation";
  case LifecycleErrc::TerminalRestore:
    return "terminal-restore";
  case LifecycleErrc::AlreadyLoaded:
    return "already-loaded";
  }
  return "?";
}

Error elide::makeLifecycleError(LifecycleErrc Errc, std::string Message) {
  return makeError(static_cast<int>(Errc), std::move(Message));
}

LifecycleErrc elide::lifecycleErrcOf(const Error &E) {
  int Code = E.code();
  return (Code >= static_cast<int>(LifecycleErrc::NotLoaded) &&
          Code <= static_cast<int>(LifecycleErrc::AlreadyLoaded))
             ? static_cast<LifecycleErrc>(Code)
             : LifecycleErrc::None;
}

const char *elide::enclaveFaultClassName(EnclaveFaultClass Class) {
  switch (Class) {
  case EnclaveFaultClass::VmTrap:
    return "vm-trap";
  case EnclaveFaultClass::BudgetRunaway:
    return "budget-runaway";
  case EnclaveFaultClass::RestoreFailure:
    return "restore-failure";
  case EnclaveFaultClass::SealedCacheCorruption:
    return "sealed-cache-corruption";
  }
  return "?";
}

EnclaveSupervisor::EnclaveSupervisor(EnclaveFactory Factory, ElideHost &Host,
                                     SupervisorConfig Config)
    : Factory(std::move(Factory)), Host(Host), Config(Config),
      Jitter(Config.JitterSeed) {
  // Sealed-cache corruption is detected by the host, not by us: its read
  // path quarantines the torn blob and falls through to the remaining
  // secret sources. Tapping the event stream classifies it as the one
  // contained fault class (no teardown, no crash-loop debit).
  Host.setEventTap([this](const ProvisionEvent &Event) {
    if (Event.Kind != ProvisionEventKind::CacheQuarantined)
      return;
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.FaultsSealedCacheCorruption;
    FaultRecord R;
    R.Class = EnclaveFaultClass::SealedCacheCorruption;
    R.Generation = Generation.load();
    R.Message = Event.Detail;
    LastFault = R;
  });
}

long long EnclaveSupervisor::nowMs() const {
  if (Clock)
    return Clock();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Error EnclaveSupervisor::load() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Retired)
    return makeLifecycleError(RetiredErrc,
                              "enclave retired (" +
                                  std::string(lifecycleErrcName(RetiredErrc)) +
                                  "); load refused");
  if (Live)
    return makeLifecycleError(LifecycleErrc::AlreadyLoaded,
                              "enclave generation " +
                                  std::to_string(Generation.load()) +
                                  " is live; tear down via fault/recovery, "
                                  "not by double-loading");
  Expected<std::unique_ptr<sgx::Enclave>> Built = Factory();
  if (!Built)
    return Built.takeError();
  Live = Built.takeValue();
  Host.attach(*Live);
  Generation.fetch_add(1);
  State.store(LifecycleState::Loaded);
  return Error::success();
}

Error EnclaveSupervisor::restoreNow() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Retired)
    return makeLifecycleError(RetiredErrc, "enclave retired; restore refused");
  if (!Live)
    return makeLifecycleError(LifecycleErrc::NotLoaded,
                              "restore before load: no enclave is built");
  Expected<uint64_t> S = restorePassLocked();
  if (!S)
    return faultLocked(EnclaveFaultClass::RestoreFailure, TrapKind::Halt, 0,
                       S.errorMessage());
  if (*S != RestoreOk) {
    if (!isRetryableRestoreStatus(*S))
      return retireLocked(LifecycleErrc::TerminalRestore,
                          std::string("restore ended terminally: ") +
                              restoreStatusName(*S));
    return faultLocked(EnclaveFaultClass::RestoreFailure, TrapKind::Halt, 0,
                       std::string("restore status: ") +
                           restoreStatusName(*S));
  }
  ConsecutiveCrashes = 0;
  State.store(LifecycleState::Restored);
  return Error::success();
}

Error EnclaveSupervisor::start() {
  if (Error E = load())
    return E;
  return restoreNow();
}

Expected<uint64_t> EnclaveSupervisor::restorePassLocked() {
  // The injector may fail the whole pass; the server-unreachable status
  // is the honest stand-in (retryable by the shared table).
  if (Chaos && Chaos->armRestore(Host.sealedPath()) == FaultKind::RestoreFail)
    return RestoreServerUnreachable;
  return Host.restore(*Live, Config.Restore);
}

void EnclaveSupervisor::recordFaultLocked(EnclaveFaultClass Class,
                                          TrapKind Trap, uint64_t Pc,
                                          const std::string &Message) {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  switch (Class) {
  case EnclaveFaultClass::VmTrap:
    ++Stats.FaultsVmTrap;
    break;
  case EnclaveFaultClass::BudgetRunaway:
    ++Stats.FaultsBudgetRunaway;
    break;
  case EnclaveFaultClass::RestoreFailure:
    ++Stats.FaultsRestoreFailure;
    break;
  case EnclaveFaultClass::SealedCacheCorruption:
    ++Stats.FaultsSealedCacheCorruption;
    break;
  }
  FaultRecord R;
  R.Class = Class;
  R.Trap = Trap;
  R.Pc = Pc;
  R.Backend = Live ? Live->vmBackend() : defaultVmBackendKind();
  R.Generation = Generation.load();
  R.Message = Message;
  LastFault = R;
}

Error EnclaveSupervisor::retireLocked(LifecycleErrc Errc,
                                      const std::string &Message) {
  Retired = true;
  RetiredErrc = Errc;
  Live.reset(); // Retirement frees the EPC; nothing will run here again.
  State.store(LifecycleState::Quarantined);
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    if (Errc == LifecycleErrc::CrashLoop)
      Stats.CrashLoopTripped = true;
  }
  return makeLifecycleError(Errc, Message);
}

Error EnclaveSupervisor::faultLocked(EnclaveFaultClass Class, TrapKind Trap,
                                     uint64_t Pc, const std::string &Message) {
  recordFaultLocked(Class, Trap, Pc, Message);
  State.store(LifecycleState::Faulted);
  ++ConsecutiveCrashes;
  if (ConsecutiveCrashes > Config.MaxCrashLoops)
    return retireLocked(LifecycleErrc::CrashLoop,
                        "crash-loop breaker tripped after " +
                            std::to_string(ConsecutiveCrashes) +
                            " consecutive faults (last: " +
                            enclaveFaultClassName(Class) + ": " + Message +
                            ")");
  long long Backoff =
      jitteredBackoffMs(Config.RecoveryBackoffBaseMs, ConsecutiveCrashes,
                        RecoveryBackoffMaxMs, Jitter);
  QuarantineUntilMs = nowMs() + Backoff;
  State.store(LifecycleState::Quarantined);
  return makeLifecycleError(
      LifecycleErrc::QuarantinedRetryLater,
      std::string(enclaveFaultClassName(Class)) + ": " + Message +
          " (quarantined; retry-after-ms=" + std::to_string(Backoff) + ")");
}

Error EnclaveSupervisor::recoverLocked() {
  State.store(LifecycleState::Recovering);
  long long T0 = nowMs();
  // Teardown first: the faulted enclave's memory is suspect (scribbled
  // text, mid-mutation globals), so recovery never reuses it.
  Live.reset();
  Expected<std::unique_ptr<sgx::Enclave>> Built = Factory();
  if (!Built) {
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.RecoveryFailures;
    }
    return faultLocked(EnclaveFaultClass::RestoreFailure, TrapKind::Halt, 0,
                       "recovery rebuild failed: " + Built.errorMessage());
  }
  Live = Built.takeValue();
  Host.attach(*Live);
  Generation.fetch_add(1);
  State.store(LifecycleState::Loaded);
  // Recovery restores ride the provisioning chain as Sheddable: a
  // rebuild storm hits the server exactly when it is most loaded, and
  // the admission controller must be free to drop rebuilds (which can
  // wait out a quarantine) before live traffic (which cannot). The
  // initial restoreNow() keeps its caller-chosen class -- only the
  // supervisor's own self-healing is speculative load.
  Criticality PrevClass = Host.requestClass();
  uint32_t PrevDeadline = Host.requestDeadlineMs();
  Host.setRequestClass(Criticality::Sheddable, PrevDeadline);
  Expected<uint64_t> S = restorePassLocked();
  Host.setRequestClass(PrevClass, PrevDeadline);
  if (!S) {
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.RecoveryFailures;
    }
    return faultLocked(EnclaveFaultClass::RestoreFailure, TrapKind::Halt, 0,
                       "recovery restore failed: " + S.errorMessage());
  }
  if (*S != RestoreOk) {
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.RecoveryFailures;
    }
    std::string Why =
        std::string("recovery restore status: ") + restoreStatusName(*S);
    if (isRetryableRestoreStatus(*S))
      return faultLocked(EnclaveFaultClass::RestoreFailure, TrapKind::Halt, 0,
                         Why);
    recordFaultLocked(EnclaveFaultClass::RestoreFailure, TrapKind::Halt, 0,
                      Why);
    return retireLocked(LifecycleErrc::TerminalRestore,
                        std::string("recovery restore ended terminally: ") +
                            restoreStatusName(*S));
  }
  // Deliberately NOT resetting ConsecutiveCrashes here: a rebuild that
  // restores fine but faults again on its first ecall is the definition
  // of a crash loop. Only a successfully served ecall proves health.
  State.store(LifecycleState::Restored);
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.Recoveries;
    Stats.RecoveryMs.push_back(nowMs() - T0);
  }
  return Error::success();
}

Error EnclaveSupervisor::gateEcallLocked() {
  if (Retired)
    return makeLifecycleError(
        RetiredErrc, "enclave retired (" +
                         std::string(lifecycleErrcName(RetiredErrc)) +
                         "); re-provision to continue");
  if (!Live || State.load() == LifecycleState::Created)
    return makeLifecycleError(LifecycleErrc::NotLoaded,
                              "ecall before load: no enclave is built");
  if (State.load() == LifecycleState::Quarantined) {
    long long Now = nowMs();
    if (Now < QuarantineUntilMs)
      return makeLifecycleError(
          LifecycleErrc::QuarantinedRetryLater,
          "enclave quarantined; retry-after-ms=" +
              std::to_string(QuarantineUntilMs - Now));
    if (Error E = recoverLocked())
      return E;
  }
  if (State.load() == LifecycleState::Loaded)
    return makeLifecycleError(
        LifecycleErrc::NotRestored,
        "ecall into still-redacted code: run restore first (the text "
        "section is zero-filled until elide_restore succeeds)");
  return Error::success();
}

void EnclaveSupervisor::countRejection(LifecycleErrc Errc) {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  switch (Errc) {
  case LifecycleErrc::NotLoaded:
  case LifecycleErrc::NotRestored:
  case LifecycleErrc::ReentrantEcall:
  case LifecycleErrc::AlreadyLoaded:
    ++Stats.OrderlinessRejections;
    break;
  case LifecycleErrc::QuarantinedRetryLater:
  case LifecycleErrc::CrashLoop:
  case LifecycleErrc::TerminalRestore:
    ++Stats.RetryLaterRejections;
    break;
  case LifecycleErrc::StaleGeneration:
    ++Stats.StaleTicketRejections;
    break;
  case LifecycleErrc::None:
    break;
  }
}

Expected<sgx::EcallResult>
EnclaveSupervisor::ecall(const std::string &Name, BytesView Input,
                         size_t OutputCapacity) {
  return ecallImpl(nullptr, Name, Input, OutputCapacity);
}

Expected<sgx::EcallResult>
EnclaveSupervisor::ecall(const SupervisorTicket &Ticket,
                         const std::string &Name, BytesView Input,
                         size_t OutputCapacity) {
  return ecallImpl(&Ticket, Name, Input, OutputCapacity);
}

Expected<sgx::EcallResult>
EnclaveSupervisor::ecallImpl(const SupervisorTicket *Ticket,
                             const std::string &Name, BytesView Input,
                             size_t OutputCapacity) {
  // Re-entrancy is checked before the lock: an ocall handler calling back
  // into the supervisor on the ecall thread must get a typed rejection,
  // not a self-deadlock.
  if (EcallOwner.load() == std::this_thread::get_id()) {
    countRejection(LifecycleErrc::ReentrantEcall);
    return makeLifecycleError(
        LifecycleErrc::ReentrantEcall,
        "re-entrant ecall '" + Name +
            "': an ocall handler called back into the enclave");
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    ++Stats.EcallsAttempted;
  }
  if (Error E = gateEcallLocked()) {
    countRejection(lifecycleErrcOf(E));
    return E;
  }
  if (Ticket && Ticket->Generation != Generation.load()) {
    countRejection(LifecycleErrc::StaleGeneration);
    return makeLifecycleError(
        LifecycleErrc::StaleGeneration,
        "session ticket is for enclave generation " +
            std::to_string(Ticket->Generation) + " but generation " +
            std::to_string(Generation.load()) +
            " is serving; re-attest to the rebuilt enclave");
  }
  FaultKind Kind = Chaos ? Chaos->armEcall(*Live, Name) : FaultKind::None;
  uint64_t SavedBudget = Live->instructionBudget();
  if (Kind == FaultKind::BudgetClamp)
    Live->setInstructionBudget(Chaos->clampBudget());
  EcallOwner.store(std::this_thread::get_id());
  Expected<sgx::EcallResult> R = Live->ecall(Name, Input, OutputCapacity);
  EcallOwner.store(std::thread::id());
  if (Kind == FaultKind::BudgetClamp && Live)
    Live->setInstructionBudget(SavedBudget);
  if (!R)
    return R; // Host-side misuse (unknown ecall, oversized buffer): the
              // caller's bug, not an enclave fault.
  if (!R->ok()) {
    EnclaveFaultClass Class = R->Exec.Kind == TrapKind::BudgetExhausted
                                  ? EnclaveFaultClass::BudgetRunaway
                                  : EnclaveFaultClass::VmTrap;
    Error E = faultLocked(Class, R->Exec.Kind, R->Exec.Pc, R->Exec.Message);
    countRejection(lifecycleErrcOf(E));
    return E;
  }
  ConsecutiveCrashes = 0;
  State.store(LifecycleState::Serving);
  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    ++Stats.EcallsServed;
  }
  return R;
}

Expected<SupervisorTicket> EnclaveSupervisor::openSession() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Error E = gateEcallLocked()) {
    countRejection(lifecycleErrcOf(E));
    return E;
  }
  return SupervisorTicket{Generation.load()};
}

Error EnclaveSupervisor::recoverNow() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (State.load() != LifecycleState::Quarantined)
    return Error::success();
  if (Retired)
    return makeLifecycleError(RetiredErrc, "enclave retired; no recovery");
  long long Now = nowMs();
  if (Now < QuarantineUntilMs)
    return makeLifecycleError(LifecycleErrc::QuarantinedRetryLater,
                              "quarantine holds; retry-after-ms=" +
                                  std::to_string(QuarantineUntilMs - Now));
  return recoverLocked();
}

SupervisorStats EnclaveSupervisor::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  SupervisorStats Copy = Stats;
  Copy.Generation = Generation.load();
  return Copy;
}

std::optional<FaultRecord> EnclaveSupervisor::lastFault() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  return LastFault;
}
