//===- server/AuthServer.cpp - The authentication server -------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/AuthServer.h"

#include "sgx/Attestation.h"

#include <chrono>
#include <cstring>

using namespace elide;

const char *elide::brownoutModeName(BrownoutMode Mode) {
  switch (Mode) {
  case BrownoutMode::Normal:
    return "normal";
  case BrownoutMode::Degraded:
    return "degraded";
  case BrownoutMode::Shed:
    return "shed";
  }
  return "unknown";
}

AuthServer::AuthServer(AuthServerConfig C)
    : Config(std::move(C)), Rng(Config.RngSeed ^ 0x5345525645ULL),
      Store(SessionStoreConfig{Config.SessionShards, Config.MaxSessions,
                               Config.RngSeed ^ 0x53455353ULL}) {}

namespace {

/// RAII decrement for the in-flight counter.
struct InFlightGuard {
  std::atomic<size_t> &Counter;
  ~InFlightGuard() { Counter.fetch_sub(1); }
};

} // namespace

BrownoutMode AuthServer::updateBrownout(double QueueDelayMs) {
  std::lock_guard<std::mutex> Lock(ControlMutex);
  QueueEwmaMs += Config.EwmaAlpha * (QueueDelayMs - QueueEwmaMs);
  BrownoutMode Next = Mode;
  switch (Mode) {
  case BrownoutMode::Normal:
    if (Config.BrownoutShedMs > 0 && QueueEwmaMs > Config.BrownoutShedMs)
      Next = BrownoutMode::Shed;
    else if (Config.BrownoutDegradedMs > 0 &&
             QueueEwmaMs > Config.BrownoutDegradedMs)
      Next = BrownoutMode::Degraded;
    break;
  case BrownoutMode::Degraded:
    if (Config.BrownoutShedMs > 0 && QueueEwmaMs > Config.BrownoutShedMs)
      Next = BrownoutMode::Shed;
    else if (QueueEwmaMs < Config.BrownoutDegradedMs / 2)
      Next = BrownoutMode::Normal;
    break;
  case BrownoutMode::Shed:
    // Hysteresis: leave only once the EWMA has fallen well below the
    // entry bar, and step down one level at a time -- flapping between
    // modes would itself destabilize clients.
    if (QueueEwmaMs < Config.BrownoutShedMs / 2)
      Next = (Config.BrownoutDegradedMs > 0 &&
              QueueEwmaMs >= Config.BrownoutDegradedMs / 2)
                 ? BrownoutMode::Degraded
                 : BrownoutMode::Normal;
    break;
  }
  if (Next != Mode) {
    Mode = Next;
    ++ModeTransitions;
  }
  return Mode;
}

void AuthServer::recordServiceTime(ServiceKind Kind, double Ms) {
  std::lock_guard<std::mutex> Lock(ControlMutex);
  if (ServiceSamples[Kind] == 0)
    ServiceEwmaMs[Kind] = Ms; // Seed with the first observation.
  else
    ServiceEwmaMs[Kind] += Config.EwmaAlpha * (Ms - ServiceEwmaMs[Kind]);
  ++ServiceSamples[Kind];
}

double AuthServer::serviceEstimate(ServiceKind Kind) const {
  std::lock_guard<std::mutex> Lock(ControlMutex);
  return ServiceSamples[Kind] ? ServiceEwmaMs[Kind] : 0.0;
}

void AuthServer::countShed(Criticality Class) {
  switch (Class) {
  case Criticality::Critical:
    ShedCritical.fetch_add(1, std::memory_order_relaxed);
    return;
  case Criticality::Default:
    ShedDefault.fetch_add(1, std::memory_order_relaxed);
    return;
  case Criticality::Sheddable:
    ShedSheddable.fetch_add(1, std::memory_order_relaxed);
    return;
  }
}

BrownoutMode AuthServer::brownoutMode() const {
  std::lock_guard<std::mutex> Lock(ControlMutex);
  return Mode;
}

Bytes AuthServer::handle(BytesView Request, const FrameContext &Ctx) {
  // The counter includes this call, so a threshold of N admits N
  // concurrent exchanges.
  size_t Concurrent = InFlight.fetch_add(1) + 1;
  InFlightGuard Guard{InFlight};

  // Unwrap the (optional) envelope before anything else: the criticality
  // class decides who gets shed, and shedding must stay cheaper than
  // serving. A malformed envelope earns a verdict, never a default.
  Expected<RequestEnvelope> Env = unwrapRequest(Request);
  if (!Env) {
    EnvelopeRejected.fetch_add(1, std::memory_order_relaxed);
    return errorFrame(Env.errorMessage());
  }
  BytesView Inner = Env->Inner;

  BrownoutMode Now = updateBrownout(Ctx.QueueDelayMs);
  uint32_t RetryAfter =
      Config.OverloadRetryAfterMs *
      (Now == BrownoutMode::Shed ? 16u : Now == BrownoutMode::Degraded ? 4u
                                                                       : 1u);

  // Load shedding, Sheddable-first: brownout levels shed whole classes;
  // below that, the in-flight cap gives each class criticality-scaled
  // headroom (Sheddable half the budget, Critical half again more), so
  // under a concurrency spike the classes drop in shed order instead of
  // at random.
  bool ShedThis = false;
  if (Now == BrownoutMode::Shed && Env->Class != Criticality::Critical) {
    ShedThis = true;
  } else if (Now == BrownoutMode::Degraded &&
             Env->Class == Criticality::Sheddable) {
    ShedThis = true;
  } else if (Config.OverloadThreshold) {
    size_t Cap = Config.OverloadThreshold;
    switch (Env->Class) {
    case Criticality::Sheddable:
      Cap = Cap / 2 ? Cap / 2 : 1;
      break;
    case Criticality::Default:
      break;
    case Criticality::Critical:
      Cap += Cap / 2;
      break;
    }
    ShedThis = Concurrent > Cap;
  }
  if (ShedThis) {
    RequestsShed.fetch_add(1, std::memory_order_relaxed);
    countShed(Env->Class);
    return overloadedFrame(RetryAfter);
  }

  if (Inner.empty())
    return errorFrame("empty request");

  ServiceKind Kind;
  switch (Inner[0]) {
  case FrameHello:
    Kind = SkHello;
    break;
  case FrameRecord:
    Kind = SkRecord;
    break;
  default:
    return errorFrame("unknown frame type " + std::to_string(Inner[0]));
  }

  // Admission control: when the remaining budget (after queue delay)
  // cannot cover the measured service time for this kind of frame,
  // answering would be wasted crypto -- the client has already moved on.
  // Refuse with the typed marker before doing the expensive work.
  if (Env->DeadlineMs) {
    double Remaining =
        static_cast<double>(Env->DeadlineMs) - Ctx.QueueDelayMs;
    if (Remaining <= 0 || Remaining < serviceEstimate(Kind)) {
      DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
      return errorFrame(
          std::string("remaining deadline cannot cover service time ") +
          DeadlineExpiredMarker);
    }
  }

  auto T0 = std::chrono::steady_clock::now();
  Bytes Response = Kind == SkHello ? handleHello(Inner) : handleRecord(Inner);
  recordServiceTime(Kind,
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - T0)
                        .count());
  return Response;
}

AuthServerStats AuthServer::stats() const {
  AuthServerStats S;
  S.HandshakesCompleted = HandshakesCompleted.load(std::memory_order_relaxed);
  S.HandshakesRejected = HandshakesRejected.load(std::memory_order_relaxed);
  S.MetaRequests = MetaRequests.load(std::memory_order_relaxed);
  S.DataRequests = DataRequests.load(std::memory_order_relaxed);
  S.SessionsEvicted = Store.evictions();
  S.LiveSessions = Store.size();
  S.RequestsShed = RequestsShed.load(std::memory_order_relaxed);
  S.SessionBudgetsExhausted =
      SessionBudgetsExhausted.load(std::memory_order_relaxed);
  S.StaleSessionRequests = StaleSessionRequests.load(std::memory_order_relaxed);
  S.DeadlineExpired = DeadlineExpired.load(std::memory_order_relaxed);
  S.ShedCritical = ShedCritical.load(std::memory_order_relaxed);
  S.ShedDefault = ShedDefault.load(std::memory_order_relaxed);
  S.ShedSheddable = ShedSheddable.load(std::memory_order_relaxed);
  S.EnvelopeRejected = EnvelopeRejected.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(ControlMutex);
    S.BrownoutTransitions = ModeTransitions;
    S.Brownout = Mode;
    S.QueueDelayEwmaMs = QueueEwmaMs;
  }
  return S;
}

Expected<sgx::ReportBody> AuthServer::verifyAttestation(BytesView Quote) {
  // Quote parsing and signature verification are the expensive part of a
  // handshake; they touch only immutable config, so they run unlocked and
  // concurrent handshakes verify in parallel.
  Expected<sgx::Quote> Parsed = sgx::Quote::deserialize(Quote);
  if (!Parsed)
    return makeError("malformed quote: " + Parsed.errorMessage());

  // 1. The quote must chain to the attestation authority.
  Expected<sgx::ReportBody> Body =
      sgx::AttestationAuthority::verifyQuote(*Parsed, Config.AuthorityKey);
  if (!Body)
    return makeError(Body.errorMessage());

  // 2. The attested enclave must be the developer's sanitized enclave --
  // this is what stops an attacker's enclave (or a tampered image) from
  // ever receiving the secrets.
  if (Body->MrEnclave != Config.ExpectedMrEnclave)
    return makeError("attested MRENCLAVE does not match the deployed "
                     "sanitized enclave");
  if (Config.ExpectedMrSigner && Body->MrSigner != *Config.ExpectedMrSigner)
    return makeError("attested MRSIGNER does not match the expected vendor");
  return Body;
}

SessionKeys AuthServer::makeSessionKeys(const X25519Key &ClientPub,
                                        X25519Key &ServerPubOut) {
  X25519Key ServerPriv;
  {
    std::lock_guard<std::mutex> Lock(RngMutex);
    Rng.fill(MutableBytesView(ServerPriv.data(), 32));
  }
  // The scalar multiplications are the costly part; they run unlocked.
  ServerPubOut = x25519PublicKey(ServerPriv);
  X25519Key Shared = x25519(ServerPriv, ClientPub);
  return deriveSessionKeys(Shared, ClientPub, ServerPubOut);
}

Bytes AuthServer::handleHello(BytesView Frame) {
  auto reject = [this](const std::string &Why) {
    HandshakesRejected.fetch_add(1, std::memory_order_relaxed);
    return errorFrame(Why);
  };

  Expected<sgx::ReportBody> Body = verifyAttestation(Frame.subspan(1));
  if (!Body)
    return reject(Body.errorMessage());

  // The enclave's channel public key rides in the report data,
  // integrity-bound by the quote signature.
  X25519Key ClientPub;
  std::memcpy(ClientPub.data(), Body->Data.data(), 32);

  X25519Key ServerPub;
  SessionKeys Keys = makeSessionKeys(ClientPub, ServerPub);
  uint64_t Sid = Store.mint(Keys);
  HandshakesCompleted.fetch_add(1, std::memory_order_relaxed);

  Bytes Response;
  Response.push_back(FrameHello);
  uint8_t SidBytes[SessionIdSize];
  writeLE64(SidBytes, Sid);
  appendBytes(Response, BytesView(SidBytes, SessionIdSize));
  appendBytes(Response, BytesView(ServerPub.data(), 32));
  return Response;
}

Bytes AuthServer::handleRecord(BytesView Frame) {
  Expected<uint64_t> Sid = peekSessionId(Frame);
  if (!Sid)
    return errorFrame(Sid.errorMessage());

  SessionKeys Keys;
  switch (Store.touch(*Sid, Config.MaxRequestsPerSession, Keys)) {
  case SessionTouch::Unknown:
    // Stale: never minted, evicted, or the server restarted under the
    // session. The typed marker tells the client the cure is a fresh
    // HELLO, not a retry of this frame.
    StaleSessionRequests.fetch_add(1, std::memory_order_relaxed);
    return errorFrame(std::string("stale session: unknown or evicted ") +
                      ReattestMarker);
  case SessionTouch::BudgetExhausted:
    // Budget spent: drop the session so the keys cannot be milked
    // indefinitely; the legitimate client simply re-attests.
    SessionBudgetsExhausted.fetch_add(1, std::memory_order_relaxed);
    return errorFrame(std::string("session request budget exhausted ") +
                      ReattestMarker);
  case SessionTouch::Ok:
    break;
  }

  Expected<Bytes> Plain = openSessionRecord(Keys.ClientToServer, Frame);
  if (!Plain)
    return errorFrame("cannot decrypt request: " + Plain.errorMessage());
  if (Plain->size() != 1)
    return errorFrame("requests are a single byte");

  Bytes Payload;
  switch ((*Plain)[0]) {
  case RequestMeta:
    MetaRequests.fetch_add(1, std::memory_order_relaxed);
    Payload = Config.Meta.serialize();
    break;
  case RequestData:
    if (Config.Meta.Encrypted)
      return errorFrame("secret data is stored locally (encrypted); the "
                        "server only serves the metadata");
    if (Config.SecretData.empty())
      return errorFrame("server has no secret data configured");
    DataRequests.fetch_add(1, std::memory_order_relaxed);
    Payload = Config.SecretData;
    break;
  default:
    return errorFrame("unknown request byte");
  }

  // Draw the IV under the (tiny) RNG lock, then run the GCM pass
  // unlocked: concurrent RECORD exchanges never serialize behind crypto.
  Bytes Iv;
  {
    std::lock_guard<std::mutex> Lock(RngMutex);
    Iv = Rng.bytes(12);
  }
  Expected<Bytes> Response = sealRecordIv(Keys.ServerToClient, Payload, Iv);
  if (!Response)
    return errorFrame("cannot seal response: " + Response.errorMessage());
  return Response.takeValue();
}
