//===- tests/BridgeTest.cpp - Ecall/ocall bridge semantics --------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The enclave boundary's copy discipline: buffers move across it only by
/// explicit bridge copies, with bounds enforced on both directions --
/// the "bridge functions automatically handle copying the contents of
/// buffers across the enclave boundary" behavior from the paper's
/// background section.
///
//===----------------------------------------------------------------------===//

#include "elide/HostRuntime.h"
#include "elide/Pipeline.h"
#include "sgx/EnclaveLoader.h"

#include <gtest/gtest.h>

using namespace elide;

namespace {

/// An enclave exercising the boundary: echoes input, calls an app ocall,
/// reports sizes.
const char *BridgeSource = R"elc(
extern ocall fn elide_read_file(req: *u8, reqlen: u64, resp: *u8, cap: u64) -> u64;

export fn echo(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  var n: u64 = inlen;
  if (n > outcap) {
    n = outcap;
  }
  memcpy8(outp, inp, n);
  return n;
}

export fn oversize_ocall(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  // Asks the host for a file but offers a 4-byte response window; the
  // bridge must reject an oversized host response.
  var tiny: u8[4];
  return elide_read_file(inp, 0, &tiny[0], 4);
}

// Recursion whose every frame holds a 256-byte array: dive(n) returns
// the sum of k mod 256 for k = 1..n.
fn dive(n: u64) -> u64 {
  var pad: u8[256];
  pad[255] = n as u8;
  if (n == 0) {
    return 0;
  }
  return dive(n - 1) + (pad[255] as u64);
}

export fn recurse(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  return dive(load_le64(inp));
}
)elc";

struct Fixture {
  std::unique_ptr<sgx::SgxDevice> Device;
  std::unique_ptr<sgx::Enclave> E;
  std::unique_ptr<ElideHost> Host;

  static Fixture make() {
    Fixture F;
    Drbg Rng(606);
    Ed25519Seed Seed{};
    Rng.fill(MutableBytesView(Seed.data(), 32));
    Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(Seed);
    Expected<BuildArtifacts> A = buildProtectedEnclave(
        {{"bridge.elc", BridgeSource}}, Vendor, {});
    EXPECT_TRUE(static_cast<bool>(A)) << A.errorMessage();
    F.Device = std::make_unique<sgx::SgxDevice>(1);
    Expected<std::unique_ptr<sgx::Enclave>> E = sgx::loadEnclave(
        *F.Device, A->PlainElf, A->PlainSig, sgx::EnclaveLayout{});
    EXPECT_TRUE(static_cast<bool>(E)) << E.errorMessage();
    F.E = E.takeValue();
    F.Host = std::make_unique<ElideHost>(nullptr, nullptr);
    F.Host->attach(*F.E);
    return F;
  }
};

TEST(BridgeSemanticsTest, EchoCopiesBothDirections) {
  Fixture F = Fixture::make();
  Bytes In = bytesOfString("across the boundary and back");
  Expected<sgx::EcallResult> R = F.E->ecall("echo", In, In.size());
  ASSERT_TRUE(static_cast<bool>(R));
  ASSERT_TRUE(R->ok()) << R->Exec.Message;
  EXPECT_EQ(R->status(), In.size());
  EXPECT_EQ(R->Output, In);
}

TEST(BridgeSemanticsTest, OutputWindowIsClearedBetweenEcalls) {
  Fixture F = Fixture::make();
  Bytes Long = bytesOfString("AAAAAAAAAAAAAAAA");
  ASSERT_TRUE(static_cast<bool>(F.E->ecall("echo", Long, Long.size())));
  // A shorter echo with a larger output capacity: the tail must be
  // zeros, not residue from the previous call.
  Bytes Short = bytesOfString("bb");
  Expected<sgx::EcallResult> R = F.E->ecall("echo", Short, 16);
  ASSERT_TRUE(static_cast<bool>(R));
  ASSERT_TRUE(R->ok());
  EXPECT_EQ(R->Output[0], 'b');
  EXPECT_EQ(R->Output[1], 'b');
  for (size_t I = 2; I < 16; ++I)
    EXPECT_EQ(R->Output[I], 0) << "stale bridge data leaked at " << I;
}

TEST(BridgeSemanticsTest, UnknownEcallIsRejected) {
  Fixture F = Fixture::make();
  Expected<sgx::EcallResult> R = F.E->ecall("no_such_entry", {}, 0);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.errorMessage().find("no ecall"), std::string::npos);
}

TEST(BridgeSemanticsTest, OversizedBuffersAreRejected) {
  Fixture F = Fixture::make();
  // Input + output larger than the bridge arena must be refused up
  // front, not corrupt enclave memory.
  Bytes Huge(1 << 20, 0);
  Expected<sgx::EcallResult> R = F.E->ecall("echo", Huge, 16);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.errorMessage().find("arena"), std::string::npos);
}

TEST(BridgeSemanticsTest, OversizedOcallResponseFaults) {
  Fixture F = Fixture::make();
  // Host serves a 100-byte "file"; the enclave offered a 4-byte window.
  F.Host->setSecretDataFile(Bytes(100, 0x55));
  Expected<sgx::EcallResult> R = F.E->ecall("oversize_ocall", {}, 0);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->Exec.Kind, TrapKind::HandlerFault);
  EXPECT_NE(R->Exec.Message.find("exceeds"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Layout bounds: a 16 KiB bridge arena and a 32 KiB stack by default
//===----------------------------------------------------------------------===//

Bytes le64Bytes(uint64_t V) {
  Bytes B(8);
  writeLE64(B.data(), V);
  return B;
}

TEST(BridgeLayoutTest, BuffersPastTheDefaultArenaAreRefused) {
  Fixture F = Fixture::make();
  // 16 KiB - 16 in and 16 out fill the arena exactly...
  Bytes In(16 * 1024 - 16, 0x5a);
  Expected<sgx::EcallResult> Fits = F.E->ecall("echo", In, 16);
  ASSERT_TRUE(static_cast<bool>(Fits)) << Fits.errorMessage();
  ASSERT_TRUE(Fits->ok()) << Fits->Exec.Message;
  EXPECT_EQ(Fits->Output, Bytes(16, 0x5a));
  // ...and one more input byte does not.
  In.push_back(0x5a);
  Expected<sgx::EcallResult> R = F.E->ecall("echo", In, 16);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.errorMessage().find("exceed the bridge arena"),
            std::string::npos)
      << R.errorMessage();
}

TEST(BridgeLayoutTest, AppSignedWithALargerLayoutFitsTheSameEcall) {
  Drbg Rng(608);
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), 32));
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(Seed);
  BuildOptions Options;
  Options.Layout.HeapSize = 64 * 1024;
  Expected<BuildArtifacts> A =
      buildProtectedEnclave({{"bridge.elc", BridgeSource}}, Vendor, Options);
  ASSERT_TRUE(static_cast<bool>(A)) << A.errorMessage();

  // The signer measured the larger heap, so only a loader that reads the
  // same layout passes EINIT.
  sgx::SgxDevice Device(2);
  Expected<std::unique_ptr<sgx::Enclave>> Default =
      sgx::loadEnclave(Device, A->PlainElf, A->PlainSig, sgx::EnclaveLayout{});
  ASSERT_FALSE(static_cast<bool>(Default));
  EXPECT_NE(Default.errorMessage().find("measurement"), std::string::npos)
      << Default.errorMessage();

  Expected<std::unique_ptr<sgx::Enclave>> E =
      sgx::loadEnclave(Device, A->PlainElf, A->PlainSig, Options.Layout);
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(nullptr, nullptr);
  Host.attach(**E);
  Bytes In(32 * 1024, 0x33);
  Expected<sgx::EcallResult> R = (*E)->ecall("echo", In, In.size());
  ASSERT_TRUE(static_cast<bool>(R)) << R.errorMessage();
  ASSERT_TRUE(R->ok()) << R->Exec.Message;
  EXPECT_EQ(R->Output, In);
}

TEST(BridgeLayoutTest, StackOverflowFaultsAtTheGuardPage) {
  Fixture F = Fixture::make();
  // Shallow recursion fits the 32 KiB stack.
  Expected<sgx::EcallResult> Shallow =
      F.E->ecall("recurse", le64Bytes(20), 0);
  ASSERT_TRUE(static_cast<bool>(Shallow)) << Shallow.errorMessage();
  ASSERT_TRUE(Shallow->ok()) << Shallow->Exec.Message;
  EXPECT_EQ(Shallow->status(), 210u);

  // The stack is the top 32 KiB of the enclave, with one unmapped guard
  // page below it and the bridge arena below that.
  uint64_t Top = 0;
  for (uint64_t Page = 0; Page < (1u << 20); Page += sgx::EpcPageSize)
    if (F.E->pagePermissions(Page))
      Top = Page + sgx::EpcPageSize;
  uint64_t StackBase = Top - 32 * 1024;
  uint64_t Guard = StackBase - sgx::EpcPageSize;
  ASSERT_FALSE(static_cast<bool>(F.E->pagePermissions(Guard)));
  ASSERT_TRUE(static_cast<bool>(F.E->pagePermissions(Guard - 1)));

  // 120 levels need about 50 KiB of stack (a frame is ~416 bytes): the
  // first access past the stack faults in the guard page instead of
  // landing in the arena.
  Expected<sgx::EcallResult> Deep = F.E->ecall("recurse", le64Bytes(120), 0);
  ASSERT_TRUE(static_cast<bool>(Deep)) << Deep.errorMessage();
  EXPECT_EQ(Deep->Exec.Kind, TrapKind::MemoryFault) << Deep->Exec.Message;
  const std::string &Msg = Deep->Exec.Message;
  size_t At = Msg.find("page fault at 0x");
  ASSERT_NE(At, std::string::npos) << Msg;
  uint64_t Addr = std::stoull(Msg.substr(At + 16), nullptr, 16);
  EXPECT_GE(Addr, Guard) << Msg;
  EXPECT_LT(Addr, StackBase) << Msg;
}

TEST(BridgeSemanticsTest, DebugPrintSuppressedForProductionEnclaves) {
  // Build the same enclave without the debug attribute: t_debug_print
  // must become a no-op (no leak channel).
  Drbg Rng(607);
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), 32));
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(Seed);
  const char *Src = R"elc(
export fn talk(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  print_str("this must not escape\n");
  return 0;
}
)elc";
  for (uint64_t Attrs : {uint64_t{sgx::AttrDebug}, uint64_t{0}}) {
    BuildOptions Options;
    Options.Attributes = Attrs;
    Expected<BuildArtifacts> A =
        buildProtectedEnclave({{"talk.elc", Src}}, Vendor, Options);
    ASSERT_TRUE(static_cast<bool>(A)) << A.errorMessage();
    sgx::SgxDevice Device(9);
    Expected<std::unique_ptr<sgx::Enclave>> E = sgx::loadEnclave(
        Device, A->PlainElf, A->PlainSig, Options.Layout);
    ASSERT_TRUE(static_cast<bool>(E));
    ElideHost Host(nullptr, nullptr);
    Host.attach(**E);
    Expected<sgx::EcallResult> R = (*E)->ecall("talk", {}, 0);
    ASSERT_TRUE(static_cast<bool>(R));
    ASSERT_TRUE(R->ok()) << R->Exec.Message;
    if (Attrs & sgx::AttrDebug)
      EXPECT_NE(Host.debugOutput().find("must not escape"),
                std::string::npos);
    else
      EXPECT_TRUE(Host.debugOutput().empty())
          << "production enclave leaked debug output";
  }
}

} // namespace
