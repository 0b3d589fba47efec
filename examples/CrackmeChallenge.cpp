//===- examples/CrackmeChallenge.cpp - A crackme the disassembler can't beat ----===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reverse-engineering scenario: a password check whose logic the
/// attacker cannot read. Run it with a password guess:
///
///   ./crackme_challenge 'SGX-3l1d3!'
///
/// The example first shows what static analysis of the shipped file
/// yields (nothing), then restores and checks the guess.
///
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "elide/HostRuntime.h"
#include "elide/Pipeline.h"
#include "elf/ElfImage.h"
#include "server/AuthServer.h"
#include "server/Transport.h"
#include "sgx/EnclaveLoader.h"
#include "vm/Disassembler.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace elide;

int main(int argc, char **argv) {
  const char *Guess = argc > 1 ? argv[1] : "hunter2";
  std::printf("== Crackme challenge ==\n\nguess: \"%s\"\n\n", Guess);

  const apps::AppSpec &App = apps::appByName("Crackme");

  Drbg Rng(0xcc);
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), 32));
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(Seed);

  BuildOptions Options;
  Expected<BuildArtifacts> Artifacts =
      buildProtectedEnclave(App.TrustedSources, Vendor, Options);
  if (!Artifacts) {
    std::fprintf(stderr, "build failed: %s\n",
                 Artifacts.errorMessage().c_str());
    return 1;
  }

  // Static analysis of the shipped image. The sanitizer scrubs the
  // elided symbols too, so the shipped file does not even say where
  // crk_transform was; take its range from the plain build's symtab (the
  // developer's view) and show what the shipped bytes there decode to.
  {
    Expected<ElfImage> Plain = ElfImage::parse(Artifacts->PlainElf);
    Expected<ElfImage> Shipped = ElfImage::parse(Artifacts->SanitizedElf);
    if (!Plain || !Shipped) {
      std::fprintf(stderr, "cannot parse the built images\n");
      return 1;
    }
    const ElfSymbol *Check = Plain->symbolByName("crk_transform");
    const ElfSection *Text = Shipped->sectionByName(".text");
    if (!Check || !Text || Check->Value < Text->Addr ||
        Check->Value - Text->Addr + Check->Size > Text->Size) {
      std::fprintf(stderr, "crk_transform is not in the shipped .text\n");
      return 1;
    }
    Bytes Code = Shipped->sectionContents(*Text);
    BytesView Body(Code.data() + (Check->Value - Text->Addr), Check->Size);
    std::printf("[attacker] the shipped symtab %s crk_transform\n",
                Shipped->symbolByName("crk_transform") ? "names"
                                                       : "does not name");
    size_t Zeros = static_cast<size_t>(std::count(Body.begin(), Body.end(), 0));
    std::printf("[attacker] %zu of its %zu bytes are zero; decodable "
                "instruction slots: %zu\n",
                Zeros, Body.size(), countValidInstructionSlots(Body));
    std::printf("[attacker] nothing to reverse engineer in the shipped "
                "file.\n\n");
  }

  sgx::SgxDevice Device(0xcc01);
  sgx::AttestationAuthority Authority(0xcc02);
  sgx::QuotingEnclave Qe(Device, Authority);

  AuthServerConfig Config;
  Config.AuthorityKey = Authority.publicKey();
  Config.ExpectedMrEnclave = Artifacts->SanitizedSig.MrEnclave;
  Config.Meta = Artifacts->Meta;
  Config.SecretData = Artifacts->SecretData;
  AuthServer Server(std::move(Config));
  LoopbackTransport Link(Server);

  Expected<std::unique_ptr<sgx::Enclave>> E = sgx::loadEnclave(
      Device, Artifacts->SanitizedElf, Artifacts->SanitizedSig,
      Options.Layout);
  if (!E) {
    std::fprintf(stderr, "load failed: %s\n", E.errorMessage().c_str());
    return 1;
  }
  ElideHost Host(&Link, &Qe);
  Host.attach(**E);
  if (Expected<uint64_t> Status = Host.restore(**E); !Status || *Status) {
    std::fprintf(stderr, "restore failed\n");
    return 1;
  }

  Bytes In(reinterpret_cast<const uint8_t *>(Guess),
           reinterpret_cast<const uint8_t *>(Guess) + std::strlen(Guess));
  Expected<sgx::EcallResult> R = (*E)->ecall("crk_check", In, 0);
  if (!R || !R->ok()) {
    std::fprintf(stderr, "crk_check failed\n");
    return 1;
  }
  if (R->status() == 1)
    std::printf("ACCESS GRANTED. Welcome back.\n");
  else
    std::printf("ACCESS DENIED. (Hint: the check lives in an enclave; "
                "the binary will not help you.)\n");
  return 0;
}
