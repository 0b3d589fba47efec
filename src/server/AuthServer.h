//===- server/AuthServer.h - The authentication server --------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The developer-controlled trusted remote party of the paper: it holds
/// `enclave.secret.meta` (always) and `enclave.secret.data` (remote-data
/// mode), verifies that a connecting client is the developer's sanitized
/// enclave running on genuine hardware (quote verification + measurement
/// check), establishes the AES-GCM channel, and answers REQUEST_META /
/// REQUEST_DATA.
///
/// "In our framework, the server stands alone and requires no developer
/// input" -- constructing an AuthServer takes only the sanitizer's
/// artifacts and the expected measurement.
///
/// Built for fleet scale: session state lives in a mutex-striped
/// `SessionStore` (no global session lock), usage counters are atomics,
/// and the only remaining lock is a tiny RNG stripe held just long
/// enough to draw key/IV bytes.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SERVER_AUTHSERVER_H
#define SGXELIDE_SERVER_AUTHSERVER_H

#include "elide/SecretMeta.h"
#include "server/Protocol.h"
#include "server/Reactor.h"
#include "server/SessionStore.h"
#include "sgx/SgxTypes.h"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <optional>

namespace elide {

/// Brownout levels, in escalation order. The controller walks up when the
/// queue-delay EWMA crosses a threshold and back down (with hysteresis)
/// when it falls below half that threshold:
///
///            EWMA > DegradedMs          EWMA > ShedMs
///   Normal  ------------------> Degraded -----------> Shed
///   Normal  <------------------ Degraded <----------- Shed
///            EWMA < DegradedMs/2        EWMA < ShedMs/2
///
/// Degraded sheds Sheddable traffic and quadruples retry-after hints;
/// Shed also sheds Default traffic and multiplies retry-after hints by 16.
enum class BrownoutMode { Normal, Degraded, Shed };

/// Human-readable brownout mode name (stats, logs, bench JSON).
const char *brownoutModeName(BrownoutMode Mode);

/// Server configuration: trust anchors plus the secret artifacts.
struct AuthServerConfig {
  /// Attestation authority public key (the IAS trust anchor).
  Ed25519PublicKey AuthorityKey{};
  /// The measurement the quote must attest to -- the *sanitized* enclave.
  sgx::Measurement ExpectedMrEnclave{};
  /// Optionally also pin the vendor (MRSIGNER).
  std::optional<sgx::Measurement> ExpectedMrSigner;
  /// enclave.secret.meta content.
  SecretMeta Meta;
  /// enclave.secret.data content (plaintext). Required in remote-data
  /// mode; leave empty in local-data mode (the client has the ciphertext).
  Bytes SecretData;
  /// Server randomness seed (IVs, ephemeral keys).
  uint64_t RngSeed = 1;
  /// Upper bound on live sessions; when a session-store stripe fills, its
  /// oldest session is evicted (that client simply re-attests).
  size_t MaxSessions = 1024;
  /// Mutex stripes in the session store (rounded up to a power of two).
  /// More stripes buy less lock contention between concurrent RECORD
  /// exchanges at the cost of coarser per-stripe eviction.
  size_t SessionShards = 16;
  /// Per-session request budget: RECORD exchanges beyond this many on one
  /// session are refused and the session is dropped (the client
  /// re-attests, which re-proves it still runs the sanitized enclave).
  /// 0 = unlimited.
  size_t MaxRequestsPerSession = 0;
  /// Load shedding: when more than this many `handle` calls are in
  /// flight concurrently, the excess are answered with an OVERLOADED
  /// frame instead of queueing behind quote verification. 0 = disabled.
  size_t OverloadThreshold = 0;
  /// Retry-after hint carried by shed responses (scaled up by the
  /// brownout controller: 4x in Degraded, 16x in Shed).
  uint32_t OverloadRetryAfterMs = 100;
  /// Brownout controller: queue-delay EWMA (reported by the transport via
  /// FrameContext) above this many milliseconds enters Degraded. 0
  /// disables the controller entirely (mode pinned to Normal).
  double BrownoutDegradedMs = 0.0;
  /// Queue-delay EWMA above this enters Shed. 0 disables the Shed level.
  double BrownoutShedMs = 0.0;
  /// Smoothing factor for the queue-delay and service-time EWMAs.
  double EwmaAlpha = 0.2;
};

/// Usage counters (benchmarks read these). `HandshakesCompleted` counts
/// attestation rounds, one per accepted HELLO.
struct AuthServerStats {
  size_t HandshakesCompleted = 0;
  size_t HandshakesRejected = 0;
  size_t MetaRequests = 0;
  size_t DataRequests = 0;
  size_t SessionsEvicted = 0;
  size_t LiveSessions = 0;
  size_t RequestsShed = 0;
  size_t SessionBudgetsExhausted = 0;
  /// RECORD frames naming a session the server no longer knows (evicted,
  /// restarted, or recycled); answered with a typed re-attest ERROR.
  size_t StaleSessionRequests = 0;
  /// Requests expired by admission control: their remaining deadline
  /// could not cover the measured service time, so the server refused
  /// them *before* spending crypto on an answer nobody would wait for.
  size_t DeadlineExpired = 0;
  /// OVERLOADED answers by criticality class of the shed request.
  size_t ShedCritical = 0;
  size_t ShedDefault = 0;
  size_t ShedSheddable = 0;
  /// Envelope frames rejected by strict parsing.
  size_t EnvelopeRejected = 0;
  /// Brownout mode changes since start (tests assert hysteresis with it).
  size_t BrownoutTransitions = 0;
  /// Current brownout mode.
  BrownoutMode Brownout = BrownoutMode::Normal;
  /// Current queue-delay EWMA in milliseconds.
  double QueueDelayEwmaMs = 0.0;
};

/// A multi-session authentication server. Transport-agnostic: feed it
/// request frames, send back its response frames (LoopbackTransport does
/// this in-process; a `ReactorServer` whose handler calls `handle` does it
/// over sockets). `handle` is thread-safe and mostly lock-free: concurrent
/// quote verifications, GCM passes, and session lookups in different
/// stripes all proceed in parallel.
class AuthServer {
public:
  explicit AuthServer(AuthServerConfig Config);

  /// Handles one request frame and produces one response frame. Protocol
  /// violations produce ERROR frames rather than C++ errors so the
  /// transport can always answer the client. Safe to call concurrently.
  /// The context form carries the transport's queue-delay measurement
  /// into admission control and the brownout controller; the plain form
  /// (in-process transports, old call sites) reports zero queue delay.
  Bytes handle(BytesView Request, const FrameContext &Ctx);
  Bytes handle(BytesView Request) { return handle(Request, FrameContext()); }

  /// Current brownout mode (tests and benches read this).
  BrownoutMode brownoutMode() const;

  /// Snapshot of the usage counters.
  AuthServerStats stats() const;

  /// The session store (tests probe striping and eviction directly).
  const SessionStore &sessions() const { return Store; }

private:
  /// Service-time EWMA buckets, one per inner frame kind (handshake cost
  /// and record cost differ by orders of magnitude; one blended average
  /// would make admission control wrong for both).
  enum ServiceKind { SkHello = 0, SkRecord = 1, SkCount = 2 };

  Bytes handleHello(BytesView Frame);
  Bytes handleRecord(BytesView Frame);

  /// Folds one queue-delay sample into the EWMA and walks the brownout
  /// state machine. Returns the mode this request is served under.
  BrownoutMode updateBrownout(double QueueDelayMs);
  /// Records a measured service time for \p Kind.
  void recordServiceTime(ServiceKind Kind, double Ms);
  /// The admission bar for \p Kind: the measured service-time EWMA, or 0
  /// when no sample exists yet (never refuse on a guess).
  double serviceEstimate(ServiceKind Kind) const;
  /// Counts one shed response against \p Class.
  void countShed(Criticality Class);

  /// Verifies a serialized quote against the trust anchors. Returns the
  /// report body or a rejection message (already counted).
  Expected<sgx::ReportBody> verifyAttestation(BytesView Quote);

  /// Draws a server ephemeral key pair and derives the session keys for
  /// \p ClientPub. Only the key-byte draw holds the RNG lock.
  SessionKeys makeSessionKeys(const X25519Key &ClientPub,
                              X25519Key &ServerPubOut);

  AuthServerConfig Config;
  std::atomic<size_t> InFlight{0}; ///< Concurrent handle() calls.
  mutable std::mutex RngMutex;
  Drbg Rng; ///< Guarded by RngMutex (key and IV draws only).
  SessionStore Store;

  std::atomic<size_t> HandshakesCompleted{0};
  std::atomic<size_t> HandshakesRejected{0};
  std::atomic<size_t> MetaRequests{0};
  std::atomic<size_t> DataRequests{0};
  std::atomic<size_t> RequestsShed{0};
  std::atomic<size_t> SessionBudgetsExhausted{0};
  std::atomic<size_t> StaleSessionRequests{0};
  std::atomic<size_t> DeadlineExpired{0};
  std::atomic<size_t> ShedCritical{0};
  std::atomic<size_t> ShedDefault{0};
  std::atomic<size_t> ShedSheddable{0};
  std::atomic<size_t> EnvelopeRejected{0};

  /// Brownout controller and admission-control state. One small mutex for
  /// a handful of doubles: held for arithmetic only, never across crypto.
  mutable std::mutex ControlMutex;
  double QueueEwmaMs = 0.0;                  ///< Guarded by ControlMutex.
  BrownoutMode Mode = BrownoutMode::Normal;  ///< Guarded by ControlMutex.
  size_t ModeTransitions = 0;                ///< Guarded by ControlMutex.
  double ServiceEwmaMs[SkCount] = {};        ///< Guarded by ControlMutex.
  size_t ServiceSamples[SkCount] = {};       ///< Guarded by ControlMutex.
};

} // namespace elide

#endif // SGXELIDE_SERVER_AUTHSERVER_H
