//===- examples/CloudCrypto.cpp - Proprietary crypto on an untrusted cloud ------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's cloud scenario: a company runs its proprietary cipher
/// (here: the AES port standing in for a trade-secret algorithm) on a
/// cloud machine it does not trust. The developer keeps the secrets on
/// their own authentication server, reached over real TCP; the cloud
/// machine's enclave attests, restores, runs jobs -- and seals the secrets
/// so subsequent "instance restarts" work even if the developer's server
/// is briefly unreachable.
///
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "elide/HostRuntime.h"
#include "elide/Pipeline.h"
#include "server/AuthServer.h"
#include "server/Reactor.h"
#include "server/Transport.h"
#include "sgx/EnclaveLoader.h"
#include "support/File.h"

#include <cstdio>

using namespace elide;

int main() {
  std::printf("== Cloud crypto example: trade-secret cipher on an untrusted "
              "machine ==\n\n");

  const apps::AppSpec &App = apps::appByName("AES");

  Drbg Rng(0xc10d);
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), 32));
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(Seed);

  BuildOptions Options; // Remote data: nothing secret ships at all.
  Expected<BuildArtifacts> Artifacts =
      buildProtectedEnclave(App.TrustedSources, Vendor, Options);
  if (!Artifacts) {
    std::fprintf(stderr, "build failed: %s\n",
                 Artifacts.errorMessage().c_str());
    return 1;
  }
  std::printf("[dev] built + sanitized the cipher enclave (%zu bytes of "
              "code redacted)\n",
              Artifacts->Report.SanitizedBytes);

  // The developer's server, on "their" side of a real TCP connection.
  sgx::AttestationAuthority Authority(11);
  AuthServerConfig Config;
  Config.AuthorityKey = Authority.publicKey();
  Config.ExpectedMrEnclave = Artifacts->SanitizedSig.MrEnclave;
  Config.ExpectedMrSigner = Artifacts->SanitizedSig.mrSigner();
  Config.Meta = Artifacts->Meta;
  Config.SecretData = Artifacts->SecretData;
  AuthServer Server(std::move(Config));
  Expected<std::unique_ptr<ReactorServer>> Tcp = ReactorServer::start(
      [&Server](BytesView Request, const FrameContext &Ctx) {
        return Server.handle(Request, Ctx);
      });
  if (!Tcp) {
    std::fprintf(stderr, "server start failed: %s\n",
                 Tcp.errorMessage().c_str());
    return 1;
  }
  std::printf("[dev] authentication server listening on 127.0.0.1:%u\n\n",
              (*Tcp)->port());

  // The cloud machine.
  sgx::SgxDevice CloudMachine(0xc1001);
  sgx::QuotingEnclave Qe(CloudMachine, Authority);
  TcpClientTransport Link("127.0.0.1", (*Tcp)->port());

  ElideHost Host(&Link, &Qe);
  std::string SealedPath = "/tmp/sgxelide_cloud_example.sealed";
  removeFile(SealedPath);
  Host.setSealedPath(SealedPath);

  for (int Launch = 1; Launch <= 2; ++Launch) {
    std::printf("[cloud] instance launch #%d\n", Launch);
    Expected<std::unique_ptr<sgx::Enclave>> E = sgx::loadEnclave(
        CloudMachine, Artifacts->SanitizedElf, Artifacts->SanitizedSig,
        Options.Layout);
    if (!E) {
      std::fprintf(stderr, "load failed: %s\n", E.errorMessage().c_str());
      return 1;
    }
    Host.attach(**E);
    size_t HandshakesBefore = Server.stats().HandshakesCompleted;
    Expected<uint64_t> Status = Host.restore(**E);
    if (!Status || *Status != 0) {
      std::fprintf(stderr, "restore failed\n");
      return 1;
    }
    size_t NewHandshakes =
        Server.stats().HandshakesCompleted - HandshakesBefore;
    std::printf("[cloud] restored (%s)\n",
                NewHandshakes ? "attested over TCP to the dev server"
                              : "from sealed storage, no network");

    // Run a customer job: encrypt a record.
    Bytes In;
    In.push_back(0); // encrypt
    Bytes Key = Drbg(Launch).bytes(16);
    appendBytes(In, Key);
    Bytes Record = bytesOfString("customer-record-0001/amount=12345678");
    Record.resize(48, 0);
    appendBytes(In, Record);
    Expected<sgx::EcallResult> R = (*E)->ecall("aes_run", In, Record.size());
    if (!R || !R->ok() || R->status() != 0) {
      std::fprintf(stderr, "cipher job failed\n");
      return 1;
    }
    std::printf("[cloud] job done; ciphertext[0..8] = ");
    for (int I = 0; I < 8; ++I)
      std::printf("%02x", R->Output[I]);
    std::printf("\n\n");
  }

  (*Tcp)->stop();
  removeFile(SealedPath);
  std::printf("cloud crypto example OK\n");
  return 0;
}
