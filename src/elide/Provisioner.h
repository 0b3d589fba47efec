//===- elide/Provisioner.h - Multi-endpoint failover provisioning ----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The provisioning resilience layer between the untrusted host runtime
/// and the developer's authentication servers. The paper's availability
/// model is a single remote exchange at startup; this layer grows it into
/// an ordered failover chain of secret sources:
///
///   endpoint[0] -> endpoint[1] -> ... -> sealed cache -> local data blob
///
/// Each remote endpoint sits behind its own circuit breaker
/// (closed / open / half-open with a single probe request and a jittered
/// cool-down), so a dead or drowning server stops costing a connect
/// timeout on every exchange. A server that sheds load with a typed
/// OVERLOADED frame parks the breaker for exactly the advertised
/// retry-after instead of counting toward endpoint death. A walk sends
/// one request per endpoint attempt, on the caller's thread, under the
/// chain-wide retry budget. That is routing, not retry: whether to walk
/// the chain again is the restore loop's decision (`ElideHost::restore`
/// under a `RestorePolicy`, elide/HostRuntime.h).
///
/// The sealed-cache and local-blob tail of the chain lives in the enclave
/// (TrustedLib's obtain-secrets order) and in ElideHost's crash-consistent
/// cache persistence; the `Provisioner` is the remote head of the chain
/// and implements `Transport`, so it drops into `ElideHost` unchanged.
///
/// Every transition is reported through a typed `ProvisionEvent` callback
/// so callers, tools, and the chaos suite can observe the chain.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_ELIDE_PROVISIONER_H
#define SGXELIDE_ELIDE_PROVISIONER_H

#include "crypto/Drbg.h"
#include "server/Transport.h"

#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace elide {

//===----------------------------------------------------------------------===//
// Provision events
//===----------------------------------------------------------------------===//

/// Transitions the provisioning chain reports. Endpoint* events describe
/// one attempt; Breaker* events describe breaker state changes; Cache*
/// events come from ElideHost's sealed-cache persistence.
enum class ProvisionEventKind {
  EndpointAttempt,    ///< A request is about to hit this endpoint.
  EndpointSuccess,    ///< The endpoint answered.
  EndpointFailure,    ///< The endpoint failed (typed Errc attached).
  EndpointOverloaded, ///< The endpoint shed load (RetryAfterMs attached).
  EndpointSkipped,    ///< Breaker open: the endpoint was not tried.
  BreakerOpened,      ///< Breaker tripped (Detail says why).
  BreakerHalfOpen,    ///< Cool-down elapsed; a probe request is admitted.
  BreakerClosed,      ///< Probe succeeded; endpoint back in rotation.
  RetryBudgetSpent,   ///< A failover retry spent one token.
  RetryBudgetExhausted, ///< The chain-wide retry budget ran dry mid-walk.
  FailoverExhausted,  ///< Every remote endpoint failed or was skipped.
  CacheWritten,       ///< Sealed cache persisted crash-consistently.
  CacheWriteFailed,   ///< Sealed cache persist failed (Detail attached).
  CacheQuarantined,   ///< Torn/corrupt cache moved aside, chain falls through.
};

/// Human-readable event kind name (logs, tests).
const char *provisionEventKindName(ProvisionEventKind Kind);

/// One observed transition.
struct ProvisionEvent {
  ProvisionEventKind Kind;
  /// Index of the endpoint in chain order; -1 for cache events.
  int EndpointIndex = -1;
  /// The endpoint's name ("host:port" or a caller-chosen label).
  std::string Endpoint;
  /// Typed failure kind for EndpointFailure.
  TransportErrc Errc = TransportErrc::None;
  /// Server retry-after hint for EndpointOverloaded.
  uint32_t RetryAfterMs = 0;
  /// Free-form context (error message, quarantine path, probe verdict).
  std::string Detail;
};

/// Observation hook. A Provisioner runs it on the thread that called
/// `roundTrip`, with its lock held, so it must not call back into that
/// Provisioner.
using ProvisionEventCallback = std::function<void(const ProvisionEvent &)>;

//===----------------------------------------------------------------------===//
// Circuit breaker
//===----------------------------------------------------------------------===//

/// Breaker states, classic semantics: Closed passes traffic, Open
/// refuses it while a cool-down runs, HalfOpen admits one probe whose
/// outcome decides between Closed and another Open round.
enum class BreakerState { Closed, Open, HalfOpen };

/// Human-readable breaker state name.
const char *breakerStateName(BreakerState State);

/// Per-endpoint breaker tuning.
struct BreakerConfig {
  /// Consecutive hard failures that trip Closed -> Open.
  int FailureThreshold = 3;
  /// Base cool-down before an Open breaker admits a half-open probe.
  int CooldownMs = 1000;
  /// Cool-downs get up to 50% deterministic jitter on top of the base
  /// (support/Backoff.h) so a fleet recovering from one outage does not
  /// probe in lockstep; this seeds the jitter source.
  uint64_t JitterSeed = 1;
  /// Cool-down used for an OVERLOADED verdict when the server supplied no
  /// usable retry-after hint.
  uint32_t DefaultOverloadCooldownMs = 100;
};

/// One endpoint's breaker. Not internally synchronized -- the Provisioner
/// serializes access under its own mutex.
class CircuitBreaker {
public:
  explicit CircuitBreaker(const BreakerConfig &Config)
      : Config(Config), Jitter(Config.JitterSeed ^ 0x4252454bULL) {}

  /// Gate for one request. Closed: admit. Open: admit only once the
  /// cool-down elapsed (transitioning to HalfOpen). HalfOpen: admit one
  /// probe at a time.
  bool admit();

  /// The admitted request succeeded: any state -> Closed.
  void onSuccess();

  /// The admitted request failed hard. Closed counts toward the
  /// threshold; a HalfOpen probe failure re-opens immediately.
  void onFailure();

  /// The endpoint shed load: park Open for the advertised retry-after
  /// (plus jitter) without counting toward endpoint death.
  void onOverloaded(uint32_t RetryAfterMs);

  BreakerState state() const { return State; }
  int consecutiveFailures() const { return ConsecutiveFailures; }

private:
  using Clock = std::chrono::steady_clock;

  /// Enters Open for \p BaseMs plus deterministic jitter.
  void open(int BaseMs);

  BreakerConfig Config;
  Drbg Jitter;
  BreakerState State = BreakerState::Closed;
  int ConsecutiveFailures = 0;
  bool ProbeInFlight = false;
  Clock::time_point ReopenAt{};
};

//===----------------------------------------------------------------------===//
// Provisioner
//===----------------------------------------------------------------------===//

/// Chain-level tuning.
struct ProvisionerConfig {
  /// Breaker template applied to every endpoint (the jitter seed is
  /// perturbed per endpoint so cool-downs de-correlate).
  BreakerConfig Breaker;

  //===- Chain-wide retry budget (metastable-failure defense) -------------===//
  //
  // Retries amplify offered load exactly when the servers are slowest;
  // unbounded, that positive feedback loop is what turns a transient
  // overload into a metastable collapse. The budget is a token bucket
  // shared by the whole chain: the first endpoint attempt of a roundTrip
  // is free, every further attempt (a failover retry) spends one token,
  // and only *successes* earn tokens back -- so during an outage the
  // amplification factor decays toward 1 instead of multiplying by the
  // chain length.

  /// Initial token balance, capped at 10; < 0 disables the budget
  /// entirely (legacy unbounded-retry behavior, the ablation baseline).
  /// Each success earns back 0.1 token.
  double RetryBudgetInitial = -1.0;
};

/// The remote head of the failover chain. Implements `Transport`, so the
/// enclave's server exchanges route through it transparently. Thread-safe;
/// endpoints must outlive the Provisioner.
class Provisioner : public Transport {
public:
  explicit Provisioner(ProvisionerConfig Config = ProvisionerConfig());

  /// Appends an endpoint to the chain (tried in insertion order).
  void addEndpoint(std::string Name, Transport *Link);

  /// Installs the observation hook (replacing any previous one).
  void setEventCallback(ProvisionEventCallback Callback);

  size_t endpointCount() const;

  /// The breaker state of endpoint \p Index (tests and tools read this).
  BreakerState breakerState(size_t Index) const;

  /// Current retry-budget token balance, or -1 when the budget is
  /// disabled (tests, tools, bench JSON).
  double retryBudget() const;

  /// Walks the chain: skips open breakers, tries endpoints in order with
  /// one request each, classifies overload distinctly from death, and
  /// returns the first answer -- or a typed error
  /// (`Overloaded`, `BreakerOpen`, or `AllEndpointsFailed`) when the
  /// whole remote chain is down.
  Expected<Bytes> roundTrip(BytesView Request) override;

private:
  struct Endpoint {
    std::string Name;
    Transport *Link;
    CircuitBreaker Breaker;
  };

  /// Outcome of one endpoint attempt, normalized: an overloaded frame or
  /// typed Overloaded error becomes {Overloaded, RetryAfterMs}.
  struct Outcome {
    Expected<Bytes> Result;
    bool IsOverloaded = false;
    uint32_t RetryAfterMs = 0;
  };

  /// Reports \p Event to the callback. Caller holds Mutex.
  void emit(const ProvisionEvent &Event) const;
  /// Runs the breaker gate for endpoint \p I under the lock, emitting
  /// skip/half-open events. Returns true when the endpoint may be tried.
  bool admitLocked(size_t I);
  /// Spends one retry-budget token (no-op when the budget is disabled).
  /// Returns false, emitting RetryBudgetExhausted, when the bucket is
  /// empty. Caller holds Mutex.
  bool spendTokenLocked(const char *What);
  /// Credits the budget for a successful exchange. Caller holds Mutex.
  void earnTokenLocked();
  /// Normalizes a raw transport result into an Outcome.
  static Outcome classify(Expected<Bytes> Result);
  /// Updates breaker + events for endpoint \p I after an attempt.
  void recordOutcome(size_t I, const Outcome &O);
  /// One attempt against endpoint \p I.
  Outcome attempt(size_t I, BytesView Request);

  ProvisionerConfig Config;
  mutable std::mutex Mutex;
  std::vector<Endpoint> Endpoints;          ///< Guarded by Mutex.
  ProvisionEventCallback Callback;          ///< Guarded by Mutex.
  bool BudgetEnabled = false;               ///< Set once in the ctor.
  double RetryBudget = 0.0;                 ///< Guarded by Mutex.
};

} // namespace elide

#endif // SGXELIDE_ELIDE_PROVISIONER_H
