//===- server/Protocol.h - SgxElide client/server wire protocol ----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol between the Runtime Restorer and the authentication
/// server. Per the paper: "The client sends a single byte request
/// representing what resource it requires (i.e., REQUEST_META ... and
/// REQUEST_DATA ...), and the server responds with the data. The client
/// and server communicate using AES GCM encryption."
///
/// Frames:
///   HELLO     : 0x01 || serialized quote            (quote's report data
///               carries the enclave's X25519 public key)
///   HELLO-OK  : 0x01 || session id[8] || server X25519 public key
///   RECORD    : 0x02 || session id[8] || iv[12] || tag[16] || ciphertext
///               (client->server; AES-128-GCM, session id bound as AAD)
///   RECORD    : 0x02 || iv[12] || tag[16] || ciphertext
///               (server->client; the client knows which session it is)
///   ERROR     : 0xee || utf-8 message
///
/// Record plaintexts: requests are the paper's single byte (REQUEST_META /
/// REQUEST_DATA); responses are the raw metadata / secret data bytes.
/// Session keys derive from X25519(client, server) via HKDF, one key per
/// direction. The session id lets one server interleave many concurrent
/// clients: it selects the per-session keys, and because it is only a
/// *selector* (the keys themselves come from the attested handshake), a
/// forged or replayed id yields nothing but a GCM failure.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SERVER_PROTOCOL_H
#define SGXELIDE_SERVER_PROTOCOL_H

#include "crypto/AesGcm.h"
#include "crypto/Drbg.h"
#include "crypto/X25519.h"
#include "support/Bytes.h"
#include "support/Error.h"

#include <optional>

namespace elide {

/// Frame type bytes.
constexpr uint8_t FrameHello = 0x01;
constexpr uint8_t FrameRecord = 0x02;
constexpr uint8_t FrameError = 0xee;
/// Load-shedding response: the server is up but refuses this exchange.
/// Unlike ERROR (a verdict about the request), OVERLOADED is a statement
/// about the server's state, so clients treat it as transient and retry
/// elsewhere / later instead of counting it as an endpoint failure.
constexpr uint8_t FrameOverloaded = 0xb5;

/// The paper's single-byte request codes.
constexpr uint8_t RequestMeta = 0x4d; // 'M'
constexpr uint8_t RequestData = 0x44; // 'D'

/// Largest frame either end of a TCP connection accepts. Over TCP every
/// frame travels behind a u32 little-endian length prefix; a prefix above
/// this bound is refused before anything is allocated for the body.
constexpr uint32_t MaxFrameBytes = 64u << 20;

/// Wire size of the session id carried by HELLO-OK and client records.
constexpr size_t SessionIdSize = 8;

/// Wire size of a HELLO-OK frame: type || sid || server public key.
constexpr size_t HelloOkSize = 1 + SessionIdSize + 32;

/// A parsed HELLO-OK frame: the minted session and the server's half of
/// the key exchange.
struct HelloOk {
  uint64_t Sid = 0;
  X25519Key ServerPub{};
};

/// Parses a HELLO-OK frame (ERROR frames surface as errors).
Expected<HelloOk> parseHelloOkFrame(BytesView Frame);

/// Per-direction AES-128 session keys derived from the handshake.
struct SessionKeys {
  Aes128Key ClientToServer{};
  Aes128Key ServerToClient{};
};

/// Derives the session keys from an X25519 shared secret and both public
/// keys (transcript binding).
SessionKeys deriveSessionKeys(const X25519Key &Shared,
                              const X25519Key &ClientPub,
                              const X25519Key &ServerPub);

/// Encrypts \p Plaintext into a server->client RECORD frame under \p Key.
Expected<Bytes> sealRecord(const Aes128Key &Key, BytesView Plaintext,
                           Drbg &Rng);

/// Same, with a caller-supplied 12-byte IV. This is the contention-free
/// form: a concurrent server draws the IV under its (tiny) RNG lock and
/// runs the GCM pass unlocked.
Expected<Bytes> sealRecordIv(const Aes128Key &Key, BytesView Plaintext,
                             BytesView Iv);

/// Decrypts a server->client RECORD frame (including the leading type
/// byte).
Expected<Bytes> openRecord(const Aes128Key &Key, BytesView Frame);

/// Encrypts \p Plaintext into a client->server RECORD frame that names
/// \p SessionId (bound into the GCM additional authenticated data).
Expected<Bytes> sealSessionRecord(uint64_t SessionId, const Aes128Key &Key,
                                  BytesView Plaintext, Drbg &Rng);

/// Reads the session id of a client->server RECORD frame without
/// decrypting it (the server uses this to select the session keys).
Expected<uint64_t> peekSessionId(BytesView Frame);

/// Decrypts a client->server RECORD frame, verifying that the session id
/// it names was authenticated under \p Key.
Expected<Bytes> openSessionRecord(const Aes128Key &Key, BytesView Frame);

/// Builds an ERROR frame.
Bytes errorFrame(const std::string &Message);

/// Marker the server embeds in ERROR frames whose cure is a fresh
/// attestation (stale/evicted session, exhausted request budget, an
/// enclave recycled out from under the session). Clients branch with
/// `errorAsksReattest` instead of parsing prose.
inline constexpr const char *ReattestMarker = "[re-attest]";

/// True when an ERROR message carries the re-attest marker.
bool errorAsksReattest(const std::string &Message);

//===----------------------------------------------------------------------===//
// Request envelope (deadline + criticality)
//===----------------------------------------------------------------------===//
//
// Frame:
//   ENVELOPE : 0xc4 || version u8 || deadline_ms u32 || criticality u8 ||
//              inner frame (HELLO / RECORD)
//
// The envelope threads the production-RPC trio through the wire protocol:
// a remaining-time deadline (milliseconds of budget left at send time;
// 0 = none) and a criticality class the server sheds by under pressure.
// Parsing is strict -- unknown versions, out-of-range criticality bytes,
// truncated headers, empty inners, and nested envelopes are all rejected
// -- and bare (un-enveloped) frames keep working with no deadline and
// Default criticality, so old clients interoperate unchanged.

/// Request criticality classes, in shed order: `Sheddable` goes first
/// under pressure, `Default` next, `Critical` last. Wire values are the
/// enum values; anything above `Sheddable` is a malformed frame.
enum class Criticality : uint8_t {
  Critical = 0,
  Default = 1,
  Sheddable = 2,
};

/// Human-readable criticality name (stats, logs, bench JSON).
const char *criticalityName(Criticality Class);

/// Maps a raw wire byte onto the enum, or nullopt for out-of-range values.
constexpr std::optional<Criticality> criticalityFromRaw(uint8_t Raw) {
  return Raw <= static_cast<uint8_t>(Criticality::Sheddable)
             ? std::optional<Criticality>(static_cast<Criticality>(Raw))
             : std::nullopt;
}

/// Envelope frame type byte.
constexpr uint8_t FrameEnvelope = 0xc4;

/// The one envelope version this build speaks. Versioning is strict: a
/// frame claiming any other version is rejected rather than half-parsed.
constexpr uint8_t EnvelopeVersion = 1;

/// Wire size of the envelope header: type || version || deadline_ms u32 ||
/// criticality.
constexpr size_t EnvelopeHeaderSize = 1 + 1 + 4 + 1;

/// A parsed request envelope.
struct RequestEnvelope {
  /// Remaining request budget in milliseconds at send time; 0 = none.
  uint32_t DeadlineMs = 0;
  Criticality Class = Criticality::Default;
  /// The enclosed frame. Aliases the parsed bytes; copy to outlive them.
  BytesView Inner;
};

/// Wraps \p Inner in an envelope carrying \p DeadlineMs and \p Class.
Bytes envelopeFrame(uint32_t DeadlineMs, Criticality Class, BytesView Inner);

/// Parses an envelope frame (including the leading type byte). Strict:
/// unknown version, out-of-range criticality, short header, empty inner,
/// or a nested envelope are errors, never silently defaulted.
Expected<RequestEnvelope> parseEnvelopeFrame(BytesView Frame);

/// Normalizes any request frame into an envelope view: envelope frames
/// parse strictly; every other frame becomes {no deadline, Default,
/// whole frame} so pre-envelope clients keep working.
Expected<RequestEnvelope> unwrapRequest(BytesView Frame);

/// Marker the server embeds in ERROR frames for requests it expired
/// because their remaining deadline could not cover the measured service
/// time (admission control). The cure is a fresh request with a larger
/// budget, not a retry of this one.
inline constexpr const char *DeadlineExpiredMarker = "[deadline-expired]";

/// True when an ERROR message carries the deadline-expired marker.
bool errorSaysDeadlineExpired(const std::string &Message);

/// Wire size of an OVERLOADED frame: type || retry-after-ms u32.
constexpr size_t OverloadedFrameSize = 1 + 4;

/// Builds an OVERLOADED frame advising the client to retry this endpoint
/// no sooner than \p RetryAfterMs from now.
Bytes overloadedFrame(uint32_t RetryAfterMs);

/// If \p Frame is a well-formed OVERLOADED frame, returns its
/// retry-after hint; otherwise nullopt (malformed overload frames are
/// treated as ordinary garbage, not trusted as backpressure).
std::optional<uint32_t> overloadedRetryAfterMs(BytesView Frame);

} // namespace elide

#endif // SGXELIDE_SERVER_PROTOCOL_H
