//===- perfbench/Fixture.cpp - Set-up shared by every workload -------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "elf/ElfImage.h"
#include "elide/HostRuntime.h"
#include "support/Hex.h"

#include <numeric>

using namespace elide;
using namespace perfbench;

uint64_t perfbench::deriveSeed(uint64_t Seed, uint64_t Salt) {
  // splitmix64 over the seed and a purpose tag.
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

Platform::Platform(uint64_t Seed)
    : Device(deriveSeed(Seed, 1)), Authority(deriveSeed(Seed, 2)),
      Qe(Device, Authority) {}

std::string AppBuild::kindName() const {
  return App->Name + (remote() ? "/remote" : "/local");
}

Workload::~Workload() = default;

namespace {

Bytes hex(const char *Text) { return fromHex(Text).takeValue(); }

Bytes concat(std::initializer_list<BytesView> Parts) {
  Bytes Out;
  for (BytesView P : Parts)
    appendBytes(Out, P);
  return Out;
}

/// Length of the `u8[N]` Elc array \p Var in \p App's trusted sources.
Expected<uint64_t> elcArrayLength(const apps::AppSpec &App,
                                  const std::string &Var) {
  std::string Needle = "var " + Var + ": u8[";
  for (const elc::SourceFile &File : App.TrustedSources) {
    size_t At = File.Source.find(Needle);
    if (At != std::string::npos)
      return std::stoull(File.Source.substr(At + Needle.size()));
  }
  return makeError("no Elc array " + Var + " in " + App.Name);
}

/// A game's first ecall: play a seeded game on the shipped assets.
Expected<KnownAnswer> gameAnswer(const apps::AppSpec &App, const char *Ecall,
                                 const char *Assets, uint64_t Steps,
                                 size_t OutLen, uint64_t GameSeed) {
  ELIDE_TRY(uint64_t AssetLen, elcArrayLength(App, Assets));
  KnownAnswer K;
  K.Ecall = Ecall;
  appendLE64(K.Input, GameSeed);
  appendLE64(K.Input, Steps);
  appendLE64(K.Input, AssetLen);
  K.OutLen = OutLen;
  return K;
}

/// The first ecall of \p App with its published answer. The games have no
/// published vector; their answer is filled in from the plain build (see
/// `certifyOnPlainBuild`).
Expected<KnownAnswer> firstEcallOf(const apps::AppSpec &App, uint64_t Seed) {
  KnownAnswer K;
  const std::string &N = App.Name;
  if (N == "AES") {
    // FIPS-197 appendix C.1.
    K.Ecall = "aes_run";
    K.Input = concat({Bytes{0}, hex("000102030405060708090a0b0c0d0e0f"),
                      hex("00112233445566778899aabbccddeeff")});
    K.OutLen = 16;
    K.Output = hex("69c4e0d86a7b0430d8cdb78070b4c55a");
  } else if (N == "DES") {
    // The classic DES known-answer test.
    K.Ecall = "des_run";
    K.Input = concat({Bytes{0}, hex("133457799bbcdff1"), hex("0123456789abcdef")});
    K.OutLen = 8;
    K.Output = hex("85e813540f0ab405");
  } else if (N == "Sha1") {
    // RFC 3174 test 1.
    K.Ecall = "sha1_run";
    K.Input = bytesOfString("abc");
    K.OutLen = 20;
    K.Output = hex("a9993e364706816aba3e25717850c26c9cd0d89d");
  } else if (N == "Shas") {
    // RFC 6234 SHA-256 "abc".
    K.Ecall = "shas_run";
    K.Input = concat({Bytes{0}, bytesOfString("abc")});
    K.OutLen = 32;
    K.Output = hex(
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  } else if (N == "Crackme") {
    // The right password is accepted (status 1, no output).
    K.Ecall = "crk_check";
    K.Input = bytesOfString("SGX-3l1d3!");
    K.Status = 1;
  } else if (N == "2048") {
    return gameAnswer(App, "g2048_play", "g2048_assets_enc", 300, 40,
                      deriveSeed(Seed, 40));
  } else if (N == "Biniax") {
    return gameAnswer(App, "binx_play", "binx_assets_enc", 400, 24,
                      deriveSeed(Seed, 41));
  } else {
    return makeError("no known answer for app " + N);
  }
  return K;
}

/// Loads the plain build of \p B, runs the app's own suite on it (which
/// checks the games against their host oracles), and, for apps without a
/// published vector, records the plain build's answer to \p K.
Error certifyOnPlainBuild(const Fixture &F, const AppBuild &B,
                          KnownAnswer &K) {
  ELIDE_TRY(std::unique_ptr<sgx::Enclave> E,
            sgx::loadEnclave(F.Plat->Device, B.Artifacts.PlainElf,
                             B.Artifacts.PlainSig, B.Options.Layout));
  ElideHost Host(nullptr, &F.Plat->Qe);
  Host.attach(*E);
  if (Error Err = B.App->RunWorkload(*E))
    return makeError("plain " + B.App->Name + " build fails its suite: " +
                     Err.message());
  ELIDE_TRY(sgx::EcallResult R, E->ecall(K.Ecall, K.Input, K.OutLen));
  if (!R.ok() || R.status() != K.Status)
    return makeError("plain " + B.App->Name + " build fails " + K.Ecall);
  K.Output = R.Output;
  return Error::success();
}

} // namespace

Expected<std::unique_ptr<Fixture>> perfbench::buildFixture(uint64_t Seed,
                                                           Tracer &T) {
  auto F = std::make_unique<Fixture>();
  F->Plat = std::make_unique<Platform>(Seed);

  Drbg VendorRng(deriveSeed(Seed, 3));
  Ed25519Seed VendorSeed{};
  VendorRng.fill(MutableBytesView(VendorSeed.data(), VendorSeed.size()));
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(VendorSeed);

  const std::vector<apps::AppSpec> &Apps = apps::allApps();
  for (size_t A = 0; A < Apps.size(); ++A) {
    for (bool Remote : {true, false}) {
      AppBuild B;
      B.App = &Apps[A];
      B.Mode = Remote ? SecretStorage::Remote : SecretStorage::Local;
      B.Options.Storage = B.Mode;
      B.Options.RngSeed = deriveSeed(Seed, 100 + Fixture::kind(A, Remote));
      {
        ScopedSpan Span(T, "elide.build");
        ELIDE_TRY(B.Artifacts, buildProtectedEnclave(B.App->TrustedSources,
                                                     Vendor, B.Options));
      }
      ELIDE_TRY(ElfImage Plain, ElfImage::parse(B.Artifacts.PlainElf));
      const ElfSection *Text = Plain.sectionByName(".text");
      if (!Text)
        return makeError("plain " + B.kindName() + " build has no .text");
      B.TextAddr = Text->Addr;
      B.PlainText = Plain.sectionContents(*Text);
      F->Builds.push_back(std::move(B));
    }
    ELIDE_TRY(KnownAnswer K, firstEcallOf(Apps[A], Seed));
    const AppBuild &Remote = F->Builds[Fixture::kind(A, true)];
    if (K.Output.empty() && K.OutLen) {
      if (Error Err = certifyOnPlainBuild(*F, Remote, K))
        return Err;
    }
    F->Answers.push_back(std::move(K));
  }
  return F;
}

AuthServerConfig perfbench::serverConfigFor(const AppBuild &B,
                                            const Platform &P,
                                            uint64_t Seed) {
  AuthServerConfig C;
  C.AuthorityKey = P.Authority.publicKey();
  ServerProvisioning Prov = provisioningFor(B.Artifacts, B.Options);
  C.ExpectedMrEnclave = Prov.SanitizedMrEnclave;
  C.ExpectedMrSigner = Prov.MrSigner;
  C.Meta = B.Artifacts.Meta;
  if (B.remote())
    C.SecretData = B.Artifacts.SecretData;
  C.RngSeed = Seed;
  return C;
}

Expected<std::unique_ptr<sgx::Enclave>>
perfbench::loadSanitized(const Fixture &F, const AppBuild &B) {
  return sgx::loadEnclave(F.Plat->Device, B.Artifacts.SanitizedElf,
                          B.Artifacts.SanitizedSig, B.Options.Layout);
}

Error perfbench::checkRestoredText(sgx::Enclave &E, const AppBuild &B) {
  ELIDE_TRY(Bytes Text, E.readMemory(B.TextAddr, B.PlainText.size()));
  if (Text != B.PlainText)
    return makeError(B.kindName() +
                     ": restored .text differs from the plain build");
  return Error::success();
}

Error perfbench::checkKnownAnswer(const Expected<sgx::EcallResult> &R,
                                  const KnownAnswer &K) {
  if (!R)
    return makeError(K.Ecall + " failed: " + R.errorMessage());
  if (!R->ok())
    return makeError(K.Ecall + " trapped: " + R->Exec.Message);
  if (R->status() != K.Status)
    return makeError(K.Ecall + " returned status " +
                     std::to_string(R->status()));
  if (R->Output != K.Output)
    return makeError(K.Ecall + " output " + toHex(R->Output) +
                     " differs from the known answer " + toHex(K.Output));
  return Error::success();
}

Clock::time_point perfbench::deadlineAfter(double Seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(Seconds));
}

PhaseResult
perfbench::closedLoop(Clock::time_point End,
                      const std::function<Error(double &LatencyMs)> &Op) {
  PhaseResult R;
  Clock::time_point Start = Clock::now();
  while (Clock::now() < End) {
    double Ms = 0;
    ++R.Attempted;
    if (Error Err = Op(Ms)) {
      ++R.Failed;
      if (R.FirstError.empty())
        R.FirstError = Err.message();
      continue;
    }
    R.LatencyMs.push_back(Ms);
  }
  R.Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
  return R;
}

Deck::Deck(size_t Kinds, uint64_t Seed)
    : Rng(Seed), Order(Kinds), Pos(Kinds) {}

size_t Deck::next() {
  if (Pos == Order.size()) {
    std::iota(Order.begin(), Order.end(), size_t{0});
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
    Pos = 0;
  }
  return Order[Pos++];
}
