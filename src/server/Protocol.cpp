//===- server/Protocol.cpp - SgxElide client/server wire protocol --------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "crypto/Hkdf.h"

#include <cstring>

using namespace elide;

SessionKeys elide::deriveSessionKeys(const X25519Key &Shared,
                                     const X25519Key &ClientPub,
                                     const X25519Key &ServerPub) {
  Bytes Info;
  appendBytes(Info, viewOf(std::string("SGXELIDE-CHANNEL")));
  appendBytes(Info, BytesView(ClientPub.data(), 32));
  appendBytes(Info, BytesView(ServerPub.data(), 32));
  Bytes Okm = hkdf(BytesView(), BytesView(Shared.data(), 32), Info, 32);
  SessionKeys Keys;
  std::memcpy(Keys.ClientToServer.data(), Okm.data(), 16);
  std::memcpy(Keys.ServerToClient.data(), Okm.data() + 16, 16);
  return Keys;
}

Expected<HelloOk> elide::parseHelloOkFrame(BytesView Frame) {
  if (!Frame.empty() && Frame[0] == FrameError)
    return makeError("peer error: " + stringOfBytes(Frame.subspan(1)));
  if (Frame.size() != HelloOkSize || Frame[0] != FrameHello)
    return makeError("not a hello-ok frame");
  HelloOk Ok;
  Ok.Sid = readLE64(Frame.data() + 1);
  std::memcpy(Ok.ServerPub.data(), Frame.data() + 1 + SessionIdSize, 32);
  return Ok;
}

Expected<Bytes> elide::sealRecord(const Aes128Key &Key, BytesView Plaintext,
                                  Drbg &Rng) {
  Bytes Iv = Rng.bytes(12);
  return sealRecordIv(Key, Plaintext, Iv);
}

Expected<Bytes> elide::sealRecordIv(const Aes128Key &Key, BytesView Plaintext,
                                    BytesView Iv) {
  if (Iv.size() != 12)
    return makeError("record IV must be 12 bytes");
  ELIDE_TRY(GcmSealed Sealed, aesGcmEncrypt(BytesView(Key.data(), 16), Iv,
                                            Plaintext, BytesView()));
  Bytes Frame;
  Frame.push_back(FrameRecord);
  appendBytes(Frame, Iv);
  appendBytes(Frame, BytesView(Sealed.Tag.data(), 16));
  appendBytes(Frame, Sealed.Ciphertext);
  return Frame;
}

Expected<Bytes> elide::openRecord(const Aes128Key &Key, BytesView Frame) {
  if (!Frame.empty() && Frame[0] == FrameError)
    return makeError("peer error: " + stringOfBytes(Frame.subspan(1)));
  if (Frame.size() < 1 + 12 + 16)
    return makeError("record frame too short");
  if (Frame[0] != FrameRecord)
    return makeError("expected a record frame, got type " +
                     std::to_string(Frame[0]));
  BytesView Iv = Frame.subspan(1, 12);
  GcmTag Tag;
  std::memcpy(Tag.data(), Frame.data() + 13, 16);
  BytesView Ciphertext = Frame.subspan(29);
  return aesGcmDecrypt(BytesView(Key.data(), 16), Iv, Ciphertext,
                       BytesView(), Tag);
}

Expected<Bytes> elide::sealSessionRecord(uint64_t SessionId,
                                         const Aes128Key &Key,
                                         BytesView Plaintext, Drbg &Rng) {
  uint8_t Sid[SessionIdSize];
  writeLE64(Sid, SessionId);
  Bytes Iv = Rng.bytes(12);
  ELIDE_TRY(GcmSealed Sealed,
            aesGcmEncrypt(BytesView(Key.data(), 16), Iv, Plaintext,
                          BytesView(Sid, SessionIdSize)));
  Bytes Frame;
  Frame.push_back(FrameRecord);
  appendBytes(Frame, BytesView(Sid, SessionIdSize));
  appendBytes(Frame, Iv);
  appendBytes(Frame, BytesView(Sealed.Tag.data(), 16));
  appendBytes(Frame, Sealed.Ciphertext);
  return Frame;
}

Expected<uint64_t> elide::peekSessionId(BytesView Frame) {
  if (Frame.size() < 1 + SessionIdSize || Frame[0] != FrameRecord)
    return makeError("not a session record frame");
  return readLE64(Frame.data() + 1);
}

Expected<Bytes> elide::openSessionRecord(const Aes128Key &Key,
                                         BytesView Frame) {
  if (!Frame.empty() && Frame[0] == FrameError)
    return makeError("peer error: " + stringOfBytes(Frame.subspan(1)));
  if (Frame.size() < 1 + SessionIdSize + 12 + 16)
    return makeError("session record frame too short");
  if (Frame[0] != FrameRecord)
    return makeError("expected a record frame, got type " +
                     std::to_string(Frame[0]));
  BytesView Sid = Frame.subspan(1, SessionIdSize);
  BytesView Iv = Frame.subspan(1 + SessionIdSize, 12);
  GcmTag Tag;
  std::memcpy(Tag.data(), Frame.data() + 1 + SessionIdSize + 12, 16);
  BytesView Ciphertext = Frame.subspan(1 + SessionIdSize + 12 + 16);
  return aesGcmDecrypt(BytesView(Key.data(), 16), Iv, Ciphertext, Sid, Tag);
}

Bytes elide::errorFrame(const std::string &Message) {
  Bytes Frame;
  Frame.push_back(FrameError);
  appendBytes(Frame, viewOf(Message));
  return Frame;
}

bool elide::errorAsksReattest(const std::string &Message) {
  return Message.find(ReattestMarker) != std::string::npos;
}

//===----------------------------------------------------------------------===//
// Request envelope
//===----------------------------------------------------------------------===//

const char *elide::criticalityName(Criticality Class) {
  switch (Class) {
  case Criticality::Critical:
    return "critical";
  case Criticality::Default:
    return "default";
  case Criticality::Sheddable:
    return "sheddable";
  }
  return "unknown";
}

Bytes elide::envelopeFrame(uint32_t DeadlineMs, Criticality Class,
                           BytesView Inner) {
  Bytes Frame;
  Frame.reserve(EnvelopeHeaderSize + Inner.size());
  Frame.push_back(FrameEnvelope);
  Frame.push_back(EnvelopeVersion);
  appendLE32(Frame, DeadlineMs);
  Frame.push_back(static_cast<uint8_t>(Class));
  appendBytes(Frame, Inner);
  return Frame;
}

Expected<RequestEnvelope> elide::parseEnvelopeFrame(BytesView Frame) {
  if (Frame.empty() || Frame[0] != FrameEnvelope)
    return makeError("not an envelope frame");
  if (Frame.size() < EnvelopeHeaderSize)
    return makeError("envelope frame truncated: " +
                     std::to_string(Frame.size()) + " bytes, header needs " +
                     std::to_string(EnvelopeHeaderSize));
  if (Frame[1] != EnvelopeVersion)
    return makeError("unsupported envelope version " +
                     std::to_string(Frame[1]) + " (this build speaks " +
                     std::to_string(EnvelopeVersion) + ")");
  std::optional<Criticality> Class =
      criticalityFromRaw(Frame[EnvelopeHeaderSize - 1]);
  if (!Class)
    return makeError("envelope criticality byte " +
                     std::to_string(Frame[EnvelopeHeaderSize - 1]) +
                     " is out of range");
  if (Frame.size() == EnvelopeHeaderSize)
    return makeError("envelope carries no inner frame");
  if (Frame[EnvelopeHeaderSize] == FrameEnvelope)
    return makeError("nested envelopes are not allowed");
  RequestEnvelope Env;
  Env.DeadlineMs = readLE32(Frame.data() + 2);
  Env.Class = *Class;
  Env.Inner = Frame.subspan(EnvelopeHeaderSize);
  return Env;
}

Expected<RequestEnvelope> elide::unwrapRequest(BytesView Frame) {
  if (!Frame.empty() && Frame[0] == FrameEnvelope)
    return parseEnvelopeFrame(Frame);
  RequestEnvelope Env;
  Env.Inner = Frame;
  return Env;
}

bool elide::errorSaysDeadlineExpired(const std::string &Message) {
  return Message.find(DeadlineExpiredMarker) != std::string::npos;
}

Bytes elide::overloadedFrame(uint32_t RetryAfterMs) {
  Bytes Frame;
  Frame.push_back(FrameOverloaded);
  appendLE32(Frame, RetryAfterMs);
  return Frame;
}

std::optional<uint32_t> elide::overloadedRetryAfterMs(BytesView Frame) {
  if (Frame.size() != OverloadedFrameSize || Frame[0] != FrameOverloaded)
    return std::nullopt;
  return readLE32(Frame.data() + 1);
}
