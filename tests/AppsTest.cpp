//===- tests/AppsTest.cpp - The seven benchmark apps, all configurations ----===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs every ported benchmark's built-in test suite in three
/// configurations: plain SGX (unsanitized baseline), SgxElide remote-data,
/// and SgxElide local-data. Each workload checks outputs against known
/// vectors or a host oracle, so these tests prove the restored code is
/// byte-for-byte *correct*, not merely executable.
///
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "crypto/Sha256.h"
#include "elf/ElfImage.h"
#include "elide/HostRuntime.h"
#include "elide/Pipeline.h"
#include "server/Transport.h"

#include <gtest/gtest.h>

using namespace elide;
using namespace elide::apps;

namespace {

enum class Config { PlainSgx, ElideRemote, ElideLocal };

const char *configName(Config C) {
  switch (C) {
  case Config::PlainSgx:
    return "PlainSgx";
  case Config::ElideRemote:
    return "ElideRemote";
  case Config::ElideLocal:
    return "ElideLocal";
  }
  return "?";
}

struct AppCase {
  std::string App;
  Config Mode;
};

void PrintTo(const AppCase &C, std::ostream *OS) {
  *OS << C.App << "/" << configName(C.Mode);
}

class AppWorkloadTest : public ::testing::TestWithParam<AppCase> {};

/// Builds the case's app for its storage mode with the suite's vendor key.
Expected<BuildArtifacts> buildCase(const AppCase &Case, BuildOptions &Options) {
  Drbg Rng(2024);
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), 32));
  Options.Storage = Case.Mode == Config::ElideLocal ? SecretStorage::Local
                                                    : SecretStorage::Remote;
  return buildProtectedEnclave(appByName(Case.App).TrustedSources,
                               ed25519KeyPairFromSeed(Seed), Options);
}

TEST_P(AppWorkloadTest, BuiltInSuitePasses) {
  const AppSpec &App = appByName(GetParam().App);
  Config Mode = GetParam().Mode;
  BuildOptions Options;
  Expected<BuildArtifacts> Artifacts = buildCase(GetParam(), Options);
  ASSERT_TRUE(static_cast<bool>(Artifacts)) << Artifacts.errorMessage();

  sgx::SgxDevice Device(555);
  sgx::AttestationAuthority Authority(556);
  sgx::QuotingEnclave Qe(Device, Authority);

  if (Mode == Config::PlainSgx) {
    Expected<std::unique_ptr<sgx::Enclave>> E = sgx::loadEnclave(
        Device, Artifacts->PlainElf, Artifacts->PlainSig, Options.Layout);
    ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
    ElideHost Host(nullptr, &Qe);
    Host.attach(**E);
    Error WorkErr = App.RunWorkload(**E);
    EXPECT_FALSE(static_cast<bool>(WorkErr))
        << (WorkErr ? WorkErr.message() : "");
    return;
  }

  AuthServerConfig Config;
  Config.AuthorityKey = Authority.publicKey();
  ServerProvisioning P = provisioningFor(*Artifacts, Options);
  Config.ExpectedMrEnclave = P.SanitizedMrEnclave;
  Config.ExpectedMrSigner = P.MrSigner;
  Config.Meta = Artifacts->Meta;
  if (Options.Storage == SecretStorage::Remote)
    Config.SecretData = Artifacts->SecretData;
  AuthServer Server(std::move(Config));
  LoopbackTransport Link(Server);

  Expected<std::unique_ptr<sgx::Enclave>> E =
      sgx::loadEnclave(Device, Artifacts->SanitizedElf,
                       Artifacts->SanitizedSig, Options.Layout);
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Link, &Qe);
  if (Options.Storage == SecretStorage::Local)
    Host.setSecretDataFile(Artifacts->SecretData);
  Host.attach(**E);

  Expected<uint64_t> Status = Host.restore(**E);
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  ASSERT_EQ(*Status, 0u);

  Error WorkErr = App.RunWorkload(**E);
  EXPECT_FALSE(static_cast<bool>(WorkErr))
      << (WorkErr ? WorkErr.message() : "");
}

/// Pages the image's loadable segments span.
size_t imagePages(const Bytes &ElfFile) {
  Expected<ElfImage> Image = ElfImage::parse(ElfFile);
  EXPECT_TRUE(static_cast<bool>(Image));
  size_t N = 0;
  if (Image)
    for (const ElfSegment &Seg : Image->segments())
      if (Seg.Type == PT_LOAD)
        N += (Seg.MemSize + sgx::EpcPageSize - 1) / sgx::EpcPageSize;
  return N;
}

/// The enclave's MRENCLAVE re-derived from its pages as loaded: ECREATE
/// over the enclave size, then for every resident page in address order
/// (the loader's EADD order) one EADD and 16 EEXTENDs of 256 bytes.
sgx::Measurement remeasure(sgx::Enclave &E,
                           const std::vector<uint64_t> &Pages) {
  auto le64 = [](uint64_t V) {
    Bytes B(8);
    writeLE64(B.data(), V);
    return B;
  };
  Sha256 Hash;
  Hash.update(viewOf(std::string("ECREATE")));
  Hash.update(le64(Pages.back() + sgx::EpcPageSize));
  for (uint64_t Page : Pages) {
    Expected<Bytes> Data = E.readMemory(Page, sgx::EpcPageSize);
    EXPECT_TRUE(static_cast<bool>(Data)) << Data.errorMessage();
    if (!Data)
      return {};
    Hash.update(viewOf(std::string("EADD")));
    Hash.update(le64(Page));
    Hash.update(le64(*E.pagePermissions(Page)));
    for (uint64_t Off = 0; Off < sgx::EpcPageSize; Off += sgx::EextendChunk) {
      Hash.update(viewOf(std::string("EEXTEND")));
      Hash.update(le64(Page + Off));
      Hash.update(BytesView(Data->data() + Off, sgx::EextendChunk));
    }
  }
  Sha256Digest D = Hash.final();
  sgx::Measurement M;
  std::copy(D.begin(), D.end(), M.begin());
  return M;
}

// A load EADDs the image's pages, a 16 KiB bridge arena and a 32 KiB
// stack, and nothing else: no staging buffer, no unused heap. Every one
// of those pages is still measured in full.
TEST_P(AppWorkloadTest, LoadMeasuresOnlyTheImageArenaAndStack) {
  BuildOptions Options;
  Expected<BuildArtifacts> Artifacts = buildCase(GetParam(), Options);
  ASSERT_TRUE(static_cast<bool>(Artifacts)) << Artifacts.errorMessage();
  bool Plain = GetParam().Mode == Config::PlainSgx;
  const Bytes &Elf = Plain ? Artifacts->PlainElf : Artifacts->SanitizedElf;

  sgx::SgxDevice Device(557);
  Expected<std::unique_ptr<sgx::Enclave>> E = sgx::loadEnclave(
      Device, Elf, Plain ? Artifacts->PlainSig : Artifacts->SanitizedSig,
      Options.Layout);
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();

  std::vector<uint64_t> Resident;
  for (uint64_t Page = 0; Page < (1u << 20); Page += sgx::EpcPageSize)
    if ((*E)->pagePermissions(Page))
      Resident.push_back(Page);
  constexpr size_t ArenaPages = 4, StackPages = 8;
  EXPECT_EQ(Resident.size(), imagePages(Elf) + ArenaPages + StackPages);
  EXPECT_GE(Resident.size(), 15u);
  EXPECT_LE(Resident.size(), 19u);
  ASSERT_FALSE(Resident.empty());
  EXPECT_EQ(remeasure(**E, Resident), (*E)->mrEnclave());
}

std::vector<AppCase> allCases() {
  std::vector<AppCase> Cases;
  for (const AppSpec &App : allApps())
    for (Config Mode :
         {Config::PlainSgx, Config::ElideRemote, Config::ElideLocal})
      Cases.push_back({App.Name, Mode});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppWorkloadTest,
                         ::testing::ValuesIn(allCases()),
                         [](const auto &Info) {
                           std::string Name = Info.param.App;
                           // Test names must be alphanumeric.
                           if (Name == "2048")
                             Name = "Game2048";
                           return Name + "_" + configName(Info.param.Mode);
                         });

TEST(AppInventoryTest, SevenAppsRegistered) {
  EXPECT_EQ(allApps().size(), 7u);
  EXPECT_EQ(allApps()[0].Name, "AES");
  EXPECT_EQ(allApps()[6].Name, "Crackme");
  for (const AppSpec &App : allApps()) {
    EXPECT_FALSE(App.TrustedSources.empty());
    EXPECT_GT(App.trustedLoc(), 20u) << App.Name;
  }
}

} // namespace
