//===- sgx/Attestation.cpp - Quoting enclave and attestation authority ---------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sgx/Attestation.h"

#include "crypto/CryptoEqual.h"
#include "crypto/Sha256.h"

#include <cstring>

using namespace elide;
using namespace elide::sgx;

AttestationAuthority::AttestationAuthority(uint64_t Seed) {
  Drbg Rng(Seed ^ 0x494153ULL); // "IAS"
  Ed25519Seed RootSeed{};
  Rng.fill(MutableBytesView(RootSeed.data(), RootSeed.size()));
  Root = ed25519KeyPairFromSeed(RootSeed);
}

Ed25519Signature AttestationAuthority::certifyAttestationKey(
    const Ed25519PublicKey &Key) const {
  Bytes Msg;
  appendBytes(Msg, viewOf(std::string("ATTESTATION-KEY")));
  appendBytes(Msg, BytesView(Key.data(), Key.size()));
  return ed25519Sign(Root, Msg);
}

Expected<ReportBody>
AttestationAuthority::verifyQuote(const Quote &Q,
                                  const Ed25519PublicKey &Authority) {
  Bytes CertMsg;
  appendBytes(CertMsg, viewOf(std::string("ATTESTATION-KEY")));
  appendBytes(CertMsg, BytesView(Q.AttestationKey.data(), 32));
  if (!ed25519Verify(Authority, CertMsg, Q.KeyCertificate))
    return makeError(SgxErrcBadSignature,
                     "quote verification failed: attestation key is not "
                     "certified by the authority");
  Bytes QuoteMsg;
  appendBytes(QuoteMsg, viewOf(std::string("QUOTE")));
  appendBytes(QuoteMsg, Q.Body.serialize());
  if (!ed25519Verify(Q.AttestationKey, QuoteMsg, Q.Signature))
    return makeError(SgxErrcBadSignature,
                     "quote verification failed: bad quote signature");
  return Q.Body;
}

QuotingEnclave::QuotingEnclave(SgxDevice &Device,
                               const AttestationAuthority &Authority)
    : Device(Device) {
  // The QE's identity: a fixed well-known measurement.
  Sha256Digest D = Sha256::hash(viewOf(std::string("QUOTING-ENCLAVE-v1")));
  std::memcpy(QeIdentity.data(), D.data(), 32);

  // Generate the device attestation key and have the authority certify it
  // (provisioning).
  Ed25519Seed Seed{};
  Device.rng().fill(MutableBytesView(Seed.data(), Seed.size()));
  AttestationKey = ed25519KeyPairFromSeed(Seed);
  KeyCertificate = Authority.certifyAttestationKey(AttestationKey.PublicKey);
}

TargetInfo QuotingEnclave::targetInfo() const { return {QeIdentity}; }

Expected<Quote> QuotingEnclave::quoteReport(const Report &R) const {
  // Only code on the same device can produce a report MAC'd with the QE's
  // report key; this check is what binds quotes to genuine hardware.
  Aes128Key Key = Device.deriveKey128(
      "REPORT", BytesView(QeIdentity.data(), QeIdentity.size()));
  CmacTag Expect = aesCmac(Key, R.Body.serialize());
  if (!cryptoEqual(Expect.data(), R.Mac.data(), Expect.size()))
    return makeError("quoting enclave rejected the report: MAC mismatch "
                     "(report was not generated on this device or was "
                     "tampered with)");

  Quote Q;
  Q.Body = R.Body;
  Q.AttestationKey = AttestationKey.PublicKey;
  Q.KeyCertificate = KeyCertificate;
  Bytes QuoteMsg;
  appendBytes(QuoteMsg, viewOf(std::string("QUOTE")));
  appendBytes(QuoteMsg, Q.Body.serialize());
  Q.Signature = ed25519Sign(AttestationKey, QuoteMsg);
  return Q;
}
