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

TEST_P(AppWorkloadTest, BuiltInSuitePasses) {
  const AppSpec &App = appByName(GetParam().App);
  Config Mode = GetParam().Mode;

  Drbg Rng(2024);
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), 32));
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(Seed);

  BuildOptions Options;
  Options.Storage = Mode == Config::ElideLocal ? SecretStorage::Local
                                               : SecretStorage::Remote;
  Expected<BuildArtifacts> Artifacts =
      buildProtectedEnclave(App.TrustedSources, Vendor, Options);
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
