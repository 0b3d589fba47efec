//===- tests/framework/RestoreRig.h - An enclave for restore-loop tests ---===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A protected enclave and the platform to load it on. Tests attach an
/// `ElideHost` on the transport they study (a closed port, a bad address,
/// an accept-and-close listener, or a server built from `serverConfig()`
/// behind a slow link) and count what `ElideHost::restore` under a
/// `RestorePolicy`, the one retry loop, does with it. Each attempt's first
/// server request is its HELLO, so against a dead transport one attempt
/// is one request.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_TESTS_FRAMEWORK_RESTORERIG_H
#define SGXELIDE_TESTS_FRAMEWORK_RESTORERIG_H

#include "elide/HostRuntime.h"
#include "elide/Pipeline.h"
#include "sgx/EnclaveLoader.h"

#include "gtest/gtest.h"

#include <memory>

namespace elide {
namespace testing {

class RestoreRig {
public:
  /// Builds the enclave; nullptr (with a test failure) when the pipeline
  /// fails.
  static std::unique_ptr<RestoreRig> make() {
    std::unique_ptr<RestoreRig> R(new RestoreRig());
    Drbg Rng(91);
    Ed25519Seed Seed{};
    Rng.fill(MutableBytesView(Seed.data(), 32));
    Expected<BuildArtifacts> Artifacts = buildProtectedEnclave(
        {{"rig.elc", "fn secret() -> u64 { return 7; }\n"
                     "export fn go(inp: *u8, inlen: u64, outp: *u8, "
                     "outcap: u64) -> u64 { return secret(); }\n"}},
        ed25519KeyPairFromSeed(Seed), R->Options);
    if (!Artifacts) {
      ADD_FAILURE() << "pipeline failed: " << Artifacts.errorMessage();
      return nullptr;
    }
    R->Artifacts = Artifacts.takeValue();
    return R;
  }

  /// A fresh, sanitized instance of the enclave.
  Expected<std::unique_ptr<sgx::Enclave>> load() {
    return sgx::loadEnclave(Device, Artifacts.SanitizedElf,
                            Artifacts.SanitizedSig, Options.Layout);
  }

  /// The platform's quoting enclave, for the host.
  sgx::QuotingEnclave *qe() { return &Qe; }

  /// The configuration of a server that provisions this enclave.
  AuthServerConfig serverConfig() const {
    ServerProvisioning P = provisioningFor(Artifacts, Options);
    AuthServerConfig Config;
    Config.AuthorityKey = Authority.publicKey();
    Config.ExpectedMrEnclave = P.SanitizedMrEnclave;
    Config.ExpectedMrSigner = P.MrSigner;
    Config.Meta = Artifacts.Meta;
    Config.SecretData = Artifacts.SecretData;
    return Config;
  }

private:
  RestoreRig() = default;

  BuildOptions Options;
  BuildArtifacts Artifacts;
  sgx::SgxDevice Device{5150};
  sgx::AttestationAuthority Authority{6160};
  sgx::QuotingEnclave Qe{Device, Authority};
};

} // namespace testing
} // namespace elide

#endif // SGXELIDE_TESTS_FRAMEWORK_RESTORERIG_H
