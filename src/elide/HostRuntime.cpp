//===- elide/HostRuntime.cpp - Untrusted host side of SgxElide -------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "elide/HostRuntime.h"

#include "elide/TrustedLib.h"
#include "support/Backoff.h"
#include "support/File.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace elide;

const char *elide::restoreStatusName(uint64_t Status) {
  switch (Status) {
  case RestoreOk:
    return "ok";
  case RestoreNoSecrets:
    return "no-secrets";
  case RestoreShortSecrets:
    return "short-secrets";
  case RestoreQuoteFailed:
    return "quote-failed";
  case RestoreServerUnreachable:
    return "server-unreachable";
  case RestoreRejected:
    return "attestation-rejected";
  case RestoreMetaFetchFailed:
    return "meta-fetch-failed";
  case RestoreMetaParseFailed:
    return "meta-parse-failed";
  case RestoreDataFetchFailed:
    return "data-fetch-failed";
  default:
    return "unknown";
  }
}

void ElideHost::attach(sgx::Enclave &E) {
  ElideTrustedLib::install(E, Qe ? Qe->targetInfo() : sgx::TargetInfo{});
  E.setOcallHandler([this](uint32_t Index, BytesView Request) {
    return handleOcall(Index, Request);
  });
}

Expected<uint64_t> ElideHost::restore(sgx::Enclave &E) {
  ELIDE_TRY(sgx::EcallResult R, E.ecall("elide_restore", {}, 0));
  if (!R.ok())
    return makeError(std::string("elide_restore trapped: ") +
                     trapKindName(R.Exec.Kind) + ": " + R.Exec.Message);
  return R.status();
}

Expected<uint64_t> ElideHost::restore(sgx::Enclave &E,
                                      const RestorePolicy &Policy) {
  using Clock = std::chrono::steady_clock;
  constexpr long long MaxWaitMs = 1000; // Ceiling of the doubling wait.
  int Attempts = std::max(1, Policy.MaxAttempts);
  uint32_t DeadlineMs = requestDeadlineMs();
  Clock::time_point Stop = Clock::now() + std::chrono::milliseconds(DeadlineMs);
  Drbg Jitter(Policy.JitterSeed);
  uint64_t Status = RestoreNoSecrets;
  for (int Attempt = 1; Attempt <= Attempts; ++Attempt) {
    if (Attempt > 1) {
      std::chrono::milliseconds Wait(jitteredBackoffMs(
          Policy.RetryDelayMs, Attempt - 1, MaxWaitMs, Jitter));
      if (DeadlineMs && Clock::now() + Wait >= Stop) {
        emit({ProvisionEventKind::FailoverExhausted, -1, "",
              TransportErrc::DeadlineExceeded, 0,
              "restore deadline (" + std::to_string(DeadlineMs) +
                  " ms) leaves no time for attempt " +
                  std::to_string(Attempt)});
        return Status;
      }
      std::this_thread::sleep_for(Wait);
    }
    RequestFailure.reset();
    ELIDE_TRY(Status, restore(E));
    if (Status == RestoreOk || !isRetryableRestoreStatus(Status) ||
        (RequestFailure && !isRetryableTransportErrc(*RequestFailure)))
      return Status;
  }
  return Status;
}

void ElideHost::emit(const ProvisionEvent &Event) {
  if (EventCallback)
    EventCallback(Event);
  if (EventTap)
    EventTap(Event);
}

Expected<Bytes> ElideHost::readSealed() {
  if (SealedPath.empty() || !fileExists(SealedPath))
    return SealedBlob;
  ELIDE_TRY(Bytes Container, readFileBytes(SealedPath));
  Expected<Bytes> Payload = decodeVersionedBlob(Container);
  if (Payload)
    return Payload;
  // Torn or corrupt: move it aside so the next write starts clean, and
  // report an empty cache so the chain falls through to the server /
  // local-data sources. The quarantined file stays on disk for forensics.
  std::string Quarantined = quarantineFile(SealedPath);
  emit({ProvisionEventKind::CacheQuarantined, -1, SealedPath,
        TransportErrc::None, 0,
        Payload.errorMessage() + "; moved to " + Quarantined});
  return SealedBlob;
}

Expected<Bytes> ElideHost::writeSealed(BytesView Request) {
  SealedBlob = toBytes(Request);
  if (!SealedPath.empty()) {
    AtomicCrashPoint Crash = SealedCrashPoint;
    SealedCrashPoint = AtomicCrashPoint::None; // One-shot injection.
    if (Error E = atomicWriteFileBytes(SealedPath,
                                       encodeVersionedBlob(Request), Crash)) {
      emit({ProvisionEventKind::CacheWriteFailed, -1, SealedPath,
            TransportErrc::None, 0, E.message()});
      return E;
    }
    emit({ProvisionEventKind::CacheWritten, -1, SealedPath,
          TransportErrc::None, 0,
          std::to_string(Request.size()) + " payload bytes"});
  }
  return Bytes();
}

Expected<Bytes> ElideHost::serverRequest(BytesView Request) {
  if (!Server)
    return makeError("no connection to the authentication server "
                     "(denial of service: the enclave cannot restore)");
  // Stamp the configured criticality/deadline envelope onto the wire.
  // The default (Default class, no deadline) sends the bare frame, so
  // hosts that never call setRequestClass stay byte-identical.
  Criticality Class = requestClass();
  uint32_t DeadlineMs = requestDeadlineMs();
  if (Class == Criticality::Default && DeadlineMs == 0)
    return Server->roundTrip(Request);
  return Server->roundTrip(envelopeFrame(DeadlineMs, Class, Request));
}

Expected<Bytes> ElideHost::handleOcall(uint32_t Index, BytesView Request) {
  switch (Index) {
  case OcallServerRequest: {
    Expected<Bytes> Response = serverRequest(Request);
    // The restore loop reads the failed request's kind to tell a
    // transient from a verdict (bad address, dry budget, no server).
    if (!Response)
      RequestFailure = transportErrcOf(Response);
    return Response;
  }

  case OcallReadFile:
    // The shipped enclave.secret.data (ciphertext). An empty response
    // tells the enclave the file is missing.
    return SecretDataFile;

  case OcallReadSealed:
    return readSealed();

  case OcallWriteSealed:
    return writeSealed(Request);

  case OcallGetQuote: {
    if (!Qe)
      return makeError("no quoting enclave on this platform");
    ELIDE_TRY(sgx::Report R, deserializeReport(Request));
    ELIDE_TRY(sgx::Quote Q, Qe->quoteReport(R));
    return Q.serialize();
  }

  case OcallPrint:
    DebugOutput += stringOfBytes(Request);
    return Bytes();

  default:
    if (Index >= OcallAppBase && AppHandler)
      return AppHandler(Index, Request);
    return makeError("unhandled ocall index " + std::to_string(Index));
  }
}
