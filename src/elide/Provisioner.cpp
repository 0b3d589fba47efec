//===- elide/Provisioner.cpp - Multi-endpoint failover provisioning --------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "elide/Provisioner.h"

#include "server/Protocol.h"
#include "support/Backoff.h"

#include <algorithm>
#include <optional>

using namespace elide;

namespace {

/// Retry-budget token ceiling (bounds the burst after a long healthy run).
constexpr double RetryBudgetMax = 10.0;
/// Tokens earned per successful exchange. 0.1 caps sustained retries near
/// 10% of successful traffic -- the classic retry budget ratio.
constexpr double RetryBudgetEarnPerSuccess = 0.1;

} // namespace

const char *elide::provisionEventKindName(ProvisionEventKind Kind) {
  switch (Kind) {
  case ProvisionEventKind::EndpointAttempt:
    return "endpoint-attempt";
  case ProvisionEventKind::EndpointSuccess:
    return "endpoint-success";
  case ProvisionEventKind::EndpointFailure:
    return "endpoint-failure";
  case ProvisionEventKind::EndpointOverloaded:
    return "endpoint-overloaded";
  case ProvisionEventKind::EndpointSkipped:
    return "endpoint-skipped";
  case ProvisionEventKind::BreakerOpened:
    return "breaker-opened";
  case ProvisionEventKind::BreakerHalfOpen:
    return "breaker-half-open";
  case ProvisionEventKind::BreakerClosed:
    return "breaker-closed";
  case ProvisionEventKind::RetryBudgetSpent:
    return "retry-budget-spent";
  case ProvisionEventKind::RetryBudgetExhausted:
    return "retry-budget-exhausted";
  case ProvisionEventKind::FailoverExhausted:
    return "failover-exhausted";
  case ProvisionEventKind::CacheWritten:
    return "cache-written";
  case ProvisionEventKind::CacheWriteFailed:
    return "cache-write-failed";
  case ProvisionEventKind::CacheQuarantined:
    return "cache-quarantined";
  }
  return "unknown";
}

const char *elide::breakerStateName(BreakerState State) {
  switch (State) {
  case BreakerState::Closed:
    return "closed";
  case BreakerState::Open:
    return "open";
  case BreakerState::HalfOpen:
    return "half-open";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// CircuitBreaker
//===----------------------------------------------------------------------===//

void CircuitBreaker::open(int BaseMs) {
  State = BreakerState::Open;
  ProbeInFlight = false;
  long long CooldownMs = jitteredBackoffMs(BaseMs, 1, BaseMs, Jitter);
  ReopenAt = Clock::now() + std::chrono::milliseconds(CooldownMs);
}

bool CircuitBreaker::admit() {
  switch (State) {
  case BreakerState::Closed:
    return true;
  case BreakerState::Open:
    if (Clock::now() < ReopenAt)
      return false;
    State = BreakerState::HalfOpen;
    ProbeInFlight = true;
    return true;
  case BreakerState::HalfOpen:
    // One probe at a time: a second caller waits for the verdict.
    if (ProbeInFlight)
      return false;
    ProbeInFlight = true;
    return true;
  }
  return false;
}

void CircuitBreaker::onSuccess() {
  State = BreakerState::Closed;
  ConsecutiveFailures = 0;
  ProbeInFlight = false;
}

void CircuitBreaker::onFailure() {
  if (State == BreakerState::HalfOpen) {
    // The probe failed: straight back to Open for another cool-down.
    open(Config.CooldownMs);
    return;
  }
  ++ConsecutiveFailures;
  if (Config.FailureThreshold > 0 &&
      ConsecutiveFailures >= Config.FailureThreshold)
    open(Config.CooldownMs);
}

void CircuitBreaker::onOverloaded(uint32_t RetryAfterMs) {
  // Backpressure, not death: park for the advertised interval without
  // advancing the failure count.
  open(static_cast<int>(RetryAfterMs ? RetryAfterMs
                                     : Config.DefaultOverloadCooldownMs));
}

//===----------------------------------------------------------------------===//
// Provisioner
//===----------------------------------------------------------------------===//

Provisioner::Provisioner(ProvisionerConfig Config)
    : Config(std::move(Config)) {
  if (this->Config.RetryBudgetInitial >= 0.0) {
    BudgetEnabled = true;
    RetryBudget = std::min(this->Config.RetryBudgetInitial, RetryBudgetMax);
  }
}

void Provisioner::addEndpoint(std::string Name, Transport *Link) {
  std::lock_guard<std::mutex> Lock(Mutex);
  BreakerConfig B = Config.Breaker;
  // De-correlate per-endpoint jitter so a fleet-wide outage does not make
  // every breaker probe on the same beat.
  B.JitterSeed ^= 0x9e3779b97f4a7c15ULL * (Endpoints.size() + 1);
  Endpoints.push_back(Endpoint{std::move(Name), Link, CircuitBreaker(B)});
}

void Provisioner::setEventCallback(ProvisionEventCallback NewCallback) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Callback = std::move(NewCallback);
}

size_t Provisioner::endpointCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Endpoints.size();
}

BreakerState Provisioner::breakerState(size_t Index) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Index < Endpoints.size() ? Endpoints[Index].Breaker.state()
                                  : BreakerState::Closed;
}

double Provisioner::retryBudget() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return BudgetEnabled ? RetryBudget : -1.0;
}

bool Provisioner::spendTokenLocked(const char *What) {
  if (!BudgetEnabled)
    return true;
  if (RetryBudget < 1.0) {
    emit({ProvisionEventKind::RetryBudgetExhausted, -1, "",
          TransportErrc::RetryBudgetExhausted, 0,
          std::string("no token for ") + What + "; balance " +
              std::to_string(RetryBudget)});
    return false;
  }
  RetryBudget -= 1.0;
  emit({ProvisionEventKind::RetryBudgetSpent, -1, "", TransportErrc::None, 0,
        std::string(What) + "; balance " + std::to_string(RetryBudget)});
  return true;
}

void Provisioner::earnTokenLocked() {
  if (!BudgetEnabled)
    return;
  RetryBudget = std::min(RetryBudget + RetryBudgetEarnPerSuccess,
                         RetryBudgetMax);
}

void Provisioner::emit(const ProvisionEvent &Event) const {
  if (Callback)
    Callback(Event);
}

bool Provisioner::admitLocked(size_t I) {
  Endpoint &Ep = Endpoints[I];
  BreakerState Before = Ep.Breaker.state();
  bool Admitted = Ep.Breaker.admit();
  if (!Admitted) {
    emit({ProvisionEventKind::EndpointSkipped, static_cast<int>(I), Ep.Name,
          TransportErrc::BreakerOpen, 0,
          std::string("breaker ") + breakerStateName(Ep.Breaker.state())});
    return false;
  }
  if (Before == BreakerState::Open)
    emit({ProvisionEventKind::BreakerHalfOpen, static_cast<int>(I), Ep.Name,
          TransportErrc::None, 0, "cool-down elapsed; probing"});
  emit({ProvisionEventKind::EndpointAttempt, static_cast<int>(I), Ep.Name,
        TransportErrc::None, 0,
        Ep.Breaker.state() == BreakerState::HalfOpen ? "probe" : ""});
  return true;
}

Provisioner::Outcome Provisioner::classify(Expected<Bytes> Result) {
  Outcome O{std::move(Result)};
  if (O.Result) {
    // In-process transports (loopback, fault injector) hand the raw
    // OVERLOADED frame up; normalize it to the typed form here.
    if (std::optional<uint32_t> After = overloadedRetryAfterMs(*O.Result)) {
      O.IsOverloaded = true;
      O.RetryAfterMs = *After;
      O.Result = makeTransportError(TransportErrc::Overloaded,
                                    "server shed load; retry-after-ms=" +
                                        std::to_string(*After));
    }
    return O;
  }
  if (transportErrcOf(O.Result) == TransportErrc::Overloaded) {
    O.IsOverloaded = true;
    O.RetryAfterMs = retryAfterHintOf(O.Result.errorMessage()).value_or(0);
  }
  return O;
}

void Provisioner::recordOutcome(size_t I, const Outcome &O) {
  Endpoint &Ep = Endpoints[I];
  BreakerState Before = Ep.Breaker.state();
  if (O.Result) {
    Ep.Breaker.onSuccess();
    earnTokenLocked();
    emit({ProvisionEventKind::EndpointSuccess, static_cast<int>(I), Ep.Name,
          TransportErrc::None, 0, ""});
    if (Before != BreakerState::Closed)
      emit({ProvisionEventKind::BreakerClosed, static_cast<int>(I), Ep.Name,
            TransportErrc::None, 0, "probe succeeded"});
    return;
  }
  if (O.IsOverloaded) {
    Ep.Breaker.onOverloaded(O.RetryAfterMs);
    emit({ProvisionEventKind::EndpointOverloaded, static_cast<int>(I),
          Ep.Name, TransportErrc::Overloaded, O.RetryAfterMs,
          O.Result.errorMessage()});
    emit({ProvisionEventKind::BreakerOpened, static_cast<int>(I), Ep.Name,
          TransportErrc::Overloaded, O.RetryAfterMs,
          "parked by server backpressure"});
    return;
  }
  Ep.Breaker.onFailure();
  // Classify via the shared table (support/Error.h) so observers can see
  // whether a later walk of the chain could cure this failure.
  TransportErrc Errc = transportErrcOf(O.Result);
  emit({ProvisionEventKind::EndpointFailure, static_cast<int>(I), Ep.Name,
        Errc, 0,
        O.Result.errorMessage() +
            (retryabilityOf(Errc) == Retryability::Terminal
                 ? " [terminal]"
                 : " [retryable]")});
  if (Before != BreakerState::Open &&
      Ep.Breaker.state() == BreakerState::Open)
    emit({ProvisionEventKind::BreakerOpened, static_cast<int>(I), Ep.Name,
          transportErrcOf(O.Result), 0,
          Before == BreakerState::HalfOpen
              ? "half-open probe failed"
              : "failure threshold reached"});
}

Provisioner::Outcome Provisioner::attempt(size_t I, BytesView Request) {
  Transport *Link;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Link = Endpoints[I].Link;
  }
  Outcome O = classify(Link->roundTrip(Request));
  std::lock_guard<std::mutex> Lock(Mutex);
  recordOutcome(I, O);
  return O;
}

Expected<Bytes> Provisioner::roundTrip(BytesView Request) {
  size_t Count;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Count = Endpoints.size();
    if (Count == 0)
      return makeTransportError(TransportErrc::AllEndpointsFailed,
                                "no provisioning endpoints configured");
  }

  std::vector<bool> Tried(Count, false);
  bool AnyAttempted = false;
  bool AllOverloaded = true;
  uint32_t MaxRetryAfter = 0;
  std::string LastMessage = "every breaker is open";

  for (;;) {
    // Pick the first admissible untried endpoint.
    size_t I = Count;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      for (size_t K = 0; K < Count && I == Count; ++K) {
        if (Tried[K])
          continue;
        if (admitLocked(K))
          I = K;
        else
          Tried[K] = true;
      }
      // The first attempt of a walk is free (it is the request itself);
      // every further endpoint is a retry and must be paid for.
      if (I < Count && AnyAttempted && !spendTokenLocked("failover retry"))
        return makeTransportError(
            TransportErrc::RetryBudgetExhausted,
            "retry budget exhausted walking the chain; last error: " +
                LastMessage);
    }
    if (I == Count)
      break;

    Tried[I] = true;
    AnyAttempted = true;

    Outcome O = attempt(I, Request);
    if (O.Result)
      return O.Result;
    if (O.IsOverloaded)
      MaxRetryAfter = std::max(MaxRetryAfter, O.RetryAfterMs);
    else
      AllOverloaded = false;
    LastMessage = O.Result.errorMessage();
  }

  // Synthesize the chain-level verdict: the caller (and the enclave's
  // cache fallback behind it) can tell backpressure from death.
  TransportErrc Verdict;
  std::string Message;
  if (!AnyAttempted) {
    Verdict = TransportErrc::BreakerOpen;
    Message = "all endpoint breakers are open; retry later";
  } else if (AllOverloaded) {
    Verdict = TransportErrc::Overloaded;
    Message = "every endpoint shed load; retry-after-ms=" +
              std::to_string(MaxRetryAfter);
  } else {
    Verdict = TransportErrc::AllEndpointsFailed;
    Message = "all " + std::to_string(Count) +
              " endpoints failed; last error: " + LastMessage;
  }
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    emit({ProvisionEventKind::FailoverExhausted, -1, "", Verdict,
          MaxRetryAfter, Message});
  }
  return makeTransportError(Verdict, Message);
}
