//===- apps/CrackmeApp.cpp - The Crackme benchmark --------------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reverse-engineering challenge: the enclave validates a password
/// through a chain of per-character transformations against an embedded
/// expected table. Without SgxElide, disassembling the enclave reveals the
/// checks (and hence the password); sanitized, there is nothing to read.
/// The workload verifies accept/reject behavior; the secrecy property is
/// asserted by the integration tests.
///
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "apps/AppUtil.h"

using namespace elide;
using namespace elide::apps;

namespace {

/// The secret password (never appears literally in the enclave image; the
/// image embeds only the transformed expectation table).
const char Password[] = "SGX-3l1d3!";
constexpr size_t PasswordLen = sizeof(Password) - 1;

/// The per-character transformation (duplicated in the Elc source).
uint8_t transformChar(uint8_t C, uint64_t I) {
  uint8_t X = static_cast<uint8_t>(C ^ (0xa5 + 7 * I));
  X = static_cast<uint8_t>((X << 3) | (X >> 5));
  return static_cast<uint8_t>(X + 13 * (I + 1));
}

const char *CrackmeAlgorithm = R"elc(
// SECRET: the character transformation and comparison chain.
fn crk_transform(c: u64, i: u64) -> u64 {
  var x: u64 = (c ^ (0xa5 + 7 * i)) & 0xff;
  x = ((x << 3) | (x >> 5)) & 0xff;
  return (x + 13 * (i + 1)) & 0xff;
}

fn crk_verify(inp: *u8, len: u64) -> u64 {
  if (len != crk_expected_len) {
    return 0;
  }
  var ok: u64 = 1;
  for (var i: u64 = 0; i < len; i = i + 1) {
    if (crk_transform(inp[i] as u64, i) != (crk_expected[i] as u64)) {
      ok = 0;
    }
  }
  return ok;
}

// Ecall: input = candidate password bytes; returns 1 when accepted.
export fn crk_check(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  return crk_verify(inp, inlen);
}
)elc";

Error crackmeWorkload(sgx::Enclave &E) {
  // The right password is accepted.
  {
    Bytes In = bytesOfString(Password);
    ELIDE_TRY(sgx::EcallResult R, E.ecall("crk_check", In, 0));
    if (!R.ok())
      return makeError(std::string("crk_check trapped: ") + R.Exec.Message);
    if (R.status() != 1)
      return makeError("crackme rejected the correct password");
  }
  // Wrong guesses -- including near misses -- are rejected.
  const char *Wrong[] = {"",       "password",    "SGX-3l1d3",
                         "SGX-3l1d3!!", "sgx-3l1d3!", "SGX-3l1d3?"};
  for (const char *Guess : Wrong) {
    Bytes In = bytesOfString(Guess);
    ELIDE_TRY(sgx::EcallResult R, E.ecall("crk_check", In, 0));
    if (!R.ok())
      return makeError(std::string("crk_check trapped: ") + R.Exec.Message);
    if (R.status() != 0)
      return makeError(std::string("crackme accepted a wrong password: ") +
                       Guess);
  }
  return Error::success();
}

} // namespace

AppSpec apps::makeCrackmeApp() {
  Bytes Expected(PasswordLen);
  for (size_t I = 0; I < PasswordLen; ++I)
    Expected[I] = transformChar(static_cast<uint8_t>(Password[I]), I);

  std::string Source;
  Source += elcArrayU8("crk_expected", Expected);
  Source += "var crk_expected_len: u64 = " + std::to_string(PasswordLen) +
            ";\n";
  Source += CrackmeAlgorithm;

  AppSpec Spec;
  Spec.Name = "Crackme";
  Spec.TrustedSources = {{"crackme.elc", Source}};
  Spec.RunWorkload = crackmeWorkload;
  Spec.IsGame = false;
  return Spec;
}
