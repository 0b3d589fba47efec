//===- tests/SgxTest.cpp - SGX device model unit tests -----------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "elc/Compiler.h"
#include "elide/TrustedLib.h"
#include "sgx/Attestation.h"
#include "sgx/EnclaveLoader.h"
#include "vm/ExecBackend.h"

#include <gtest/gtest.h>

using namespace elide;
using namespace elide::sgx;

namespace {

Ed25519KeyPair testVendor(uint64_t Seed = 99) {
  Drbg Rng(Seed);
  Ed25519Seed S{};
  Rng.fill(MutableBytesView(S.data(), 32));
  return ed25519KeyPairFromSeed(S);
}

/// Builds a tiny enclave through the raw builder interface.
Expected<std::unique_ptr<Enclave>> buildTinyEnclave(SgxDevice &Device,
                                                    uint64_t Attributes,
                                                    BytesView PageContent) {
  SgxDevice::Builder B(Device, 0x10000);
  if (Error E = B.addPage(0x1000, PermRead | PermExec, PageContent))
    return E;
  if (Error E = B.addPage(0x2000, PermRead | PermWrite, {}))
    return E;
  SigStruct Sig =
      SigStruct::sign(testVendor(), B.currentMeasurement(), Attributes);
  return B.init(Sig);
}

//===----------------------------------------------------------------------===//
// Measurement (ECREATE / EADD / EEXTEND)
//===----------------------------------------------------------------------===//

TEST(MeasurementTest, DeterministicAcrossDevices) {
  Bytes Page(100, 0x5a);
  SgxDevice D1(1), D2(2);
  SgxDevice::Builder B1(D1, 0x10000), B2(D2, 0x10000);
  ASSERT_FALSE(static_cast<bool>(B1.addPage(0x1000, PermRead, Page)));
  ASSERT_FALSE(static_cast<bool>(B2.addPage(0x1000, PermRead, Page)));
  EXPECT_EQ(B1.currentMeasurement(), B2.currentMeasurement());
}

TEST(MeasurementTest, SensitiveToContentPermsAddressAndSize) {
  auto MeasureWith = [](uint64_t Size, uint64_t VAddr, uint8_t Perms,
                        uint8_t Fill) {
    SgxDevice D(1);
    SgxDevice::Builder B(D, Size);
    Bytes Page(64, Fill);
    EXPECT_FALSE(static_cast<bool>(B.addPage(VAddr, Perms, Page)));
    return B.currentMeasurement();
  };
  Measurement Base = MeasureWith(0x10000, 0x1000, PermRead, 0xaa);
  EXPECT_NE(Base, MeasureWith(0x10000, 0x1000, PermRead, 0xab));
  EXPECT_NE(Base, MeasureWith(0x10000, 0x1000, PermRead | PermWrite, 0xaa));
  EXPECT_NE(Base, MeasureWith(0x10000, 0x2000, PermRead, 0xaa));
  EXPECT_NE(Base, MeasureWith(0x20000, 0x1000, PermRead, 0xaa));
}

TEST(MeasurementTest, BuilderValidatesPages) {
  SgxDevice D(1);
  SgxDevice::Builder B(D, 0x4000);
  EXPECT_TRUE(static_cast<bool>(B.addPage(0x1004, PermRead, {})))
      << "unaligned address must be rejected";
  EXPECT_TRUE(static_cast<bool>(B.addPage(0x4000, PermRead, {})))
      << "page outside the enclave range must be rejected";
  EXPECT_FALSE(static_cast<bool>(B.addPage(0x1000, PermRead, {})));
  EXPECT_TRUE(static_cast<bool>(B.addPage(0x1000, PermRead, {})))
      << "double-add must be rejected";
  EXPECT_TRUE(static_cast<bool>(B.addPage(0x2000, PermRead,
                                          Bytes(4097, 0))))
      << "oversized content must be rejected";
  Error Wrapping = B.addPage(0xfffffffffffff000, PermRead, {});
  ASSERT_TRUE(static_cast<bool>(Wrapping))
      << "a page whose end wraps past 2^64 is outside the enclave range";
  EXPECT_NE(Wrapping.message().find("0xfffffffffffff000"), std::string::npos)
      << Wrapping.message();

  SgxDevice::Builder Huge(D, MaxEnclaveSize + 0x10000);
  EXPECT_TRUE(static_cast<bool>(Huge.addPage(MaxEnclaveSize, PermRead, {})))
      << "a page at or above the 1 GiB cap must be rejected";
  EXPECT_FALSE(static_cast<bool>(
      Huge.addPage(MaxEnclaveSize - EpcPageSize, PermRead, {})));
}

//===----------------------------------------------------------------------===//
// EINIT
//===----------------------------------------------------------------------===//

TEST(EinitTest, AcceptsMatchingSignedMeasurement) {
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> E =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  EXPECT_TRUE((*E)->isDebug());
}

TEST(EinitTest, RejectsWrongMeasurement) {
  SgxDevice D(1);
  SgxDevice::Builder B(D, 0x10000);
  ASSERT_FALSE(static_cast<bool>(B.addPage(0x1000, PermRead, Bytes(8, 7))));
  Measurement Wrong{};
  SigStruct Sig = SigStruct::sign(testVendor(), Wrong, 0);
  Expected<std::unique_ptr<Enclave>> E = B.init(Sig);
  ASSERT_FALSE(static_cast<bool>(E));
  EXPECT_NE(E.errorMessage().find("measurement"), std::string::npos);
}

TEST(EinitTest, RejectsTamperedAttributes) {
  // Attributes are covered by the vendor signature: flipping them after
  // signing must fail.
  SgxDevice D(1);
  SgxDevice::Builder B(D, 0x10000);
  ASSERT_FALSE(static_cast<bool>(B.addPage(0x1000, PermRead, Bytes(8, 7))));
  SigStruct Sig = SigStruct::sign(testVendor(), B.currentMeasurement(),
                                  AttrDebug);
  Sig.Attributes |= AttrSgx2DynamicPerms; // privilege escalation attempt
  Expected<std::unique_ptr<Enclave>> E = B.init(Sig);
  ASSERT_FALSE(static_cast<bool>(E));
}

TEST(EinitTest, MrSignerDerivesFromVendorKey) {
  Ed25519KeyPair V1 = testVendor(1), V2 = testVendor(2);
  Measurement M{};
  SigStruct S1 = SigStruct::sign(V1, M, 0);
  SigStruct S2 = SigStruct::sign(V2, M, 0);
  EXPECT_NE(S1.mrSigner(), S2.mrSigner());
  EXPECT_EQ(S1.mrSigner(), SigStruct::sign(V1, M, 1).mrSigner());
}

TEST(EinitTest, SigStructSerializationRoundTrip) {
  SigStruct S = SigStruct::sign(testVendor(), Measurement{}, AttrDebug);
  Expected<SigStruct> Back = SigStruct::deserialize(S.serialize());
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(Back->MrEnclave, S.MrEnclave);
  EXPECT_EQ(Back->Attributes, S.Attributes);
  EXPECT_EQ(Back->VendorKey, S.VendorKey);
  EXPECT_TRUE(Back->verify());
}

//===----------------------------------------------------------------------===//
// Page permissions
//===----------------------------------------------------------------------===//

TEST(PagePermTest, WriteToReadOnlyPageFaults) {
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> E =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  ASSERT_TRUE(static_cast<bool>(E));
  // 0x1000 is R+X (no W): stores must fault; 0x2000 is RW: stores work.
  Bytes Data = {1, 2, 3};
  EXPECT_TRUE(static_cast<bool>((*E)->writeMemory(0x1000, Data)));
  EXPECT_FALSE(static_cast<bool>((*E)->writeMemory(0x2000, Data)));
  Expected<Bytes> Back = (*E)->readMemory(0x2000, 3);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Data);
}

TEST(PagePermTest, FaultingStraddlingWriteWritesNothing) {
  // 0x2000 is RW and 0x3000 unmapped: a write across the boundary faults
  // on the second page, and the first must keep its bytes.
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> E =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  ASSERT_TRUE(static_cast<bool>(E));
  Error Err = (*E)->writeMemory(0x2ffc, Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.message(), "page fault at 0x3000 (no EPC page mapped)");
  Expected<Bytes> Back = (*E)->readMemory(0x2ffc, 4);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Bytes(4, 0));
}

TEST(PagePermTest, UnmappedAccessFaults) {
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> E =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_TRUE(static_cast<bool>((*E)->readMemory(0x5000, 8).takeError()));
}

TEST(PagePermTest, Sgx1ForbidsPermissionChanges) {
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> E =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_TRUE(static_cast<bool>(
      (*E)->extendPagePermissions(0x1000, PermWrite)));
  EXPECT_TRUE(static_cast<bool>(
      (*E)->restrictPagePermissions(0x2000, PermWrite)));
}

TEST(PagePermTest, Sgx2AllowsExtendAndRestrict) {
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> E = buildTinyEnclave(
      D, AttrDebug | AttrSgx2DynamicPerms, Bytes(16, 1));
  ASSERT_TRUE(static_cast<bool>(E));
  ASSERT_FALSE(static_cast<bool>(
      (*E)->extendPagePermissions(0x1000, PermWrite)));
  Bytes Data = {7};
  EXPECT_FALSE(static_cast<bool>((*E)->writeMemory(0x1000, Data)));
  ASSERT_FALSE(static_cast<bool>(
      (*E)->restrictPagePermissions(0x1000, PermWrite)));
  EXPECT_TRUE(static_cast<bool>((*E)->writeMemory(0x1000, Data)));
}

//===----------------------------------------------------------------------===//
// SVM loads and stores on the enclave bus, every backend against the
// reference: the threaded engine serves in-page accesses from the bus's
// inline page table, and must fault exactly where the switch engine does.
//===----------------------------------------------------------------------===//

/// The bus enclaves' pages: code r-x, data rw-, a read-only page, a hole,
/// the bridge heap and the stack (both rw-), and nothing from BusEnd on.
constexpr uint64_t BusCode = 0x1000, BusData = 0x2000, BusReadOnly = 0x3000,
                   BusHeap = 0x5000, BusStack = 0x6000, BusEnd = 0x7000;

/// The byte pattern of the data and read-only pages.
Bytes busPattern() {
  Bytes P(EpcPageSize);
  for (size_t I = 0; I < P.size(); ++I)
    P[I] = static_cast<uint8_t>(I * 7 + 1);
  return P;
}

/// Builds an SGX2 enclave in the layout above on backend \p Kind.
/// Program i sits at BusCode + 0x100 * i and is exported as ecall "p<i>".
std::unique_ptr<Enclave> buildBusEnclave(SgxDevice &D, VmBackendKind Kind,
                                         const std::vector<Bytes> &Programs) {
  Bytes Code;
  std::map<std::string, uint64_t> Ecalls;
  for (size_t I = 0; I < Programs.size(); ++I) {
    EXPECT_LE(Programs[I].size(), 0x100u);
    Code.resize(0x100 * I, 0);
    appendBytes(Code, Programs[I]);
    Ecalls["p" + std::to_string(I)] = BusCode + 0x100 * I;
  }
  SgxDevice::Builder B(D, 0x10000);
  using PageSpec = std::tuple<uint64_t, uint8_t, Bytes>;
  for (auto [VAddr, Perms, Content] :
       {PageSpec{BusCode, PermRead | PermExec, Code},
        {BusData, PermRead | PermWrite, busPattern()},
        {BusReadOnly, PermRead, busPattern()},
        {BusHeap, PermRead | PermWrite, {}},
        {BusStack, PermRead | PermWrite, {}}})
    EXPECT_FALSE(static_cast<bool>(B.addPage(VAddr, Perms, Content)));
  Expected<std::unique_ptr<Enclave>> E =
      B.init(SigStruct::sign(testVendor(), B.currentMeasurement(),
                             AttrDebug | AttrSgx2DynamicPerms));
  EXPECT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  if (!E)
    return nullptr;
  (*E)->setEcallTable(Ecalls);
  (*E)->setLayout(BusHeap, EpcPageSize, BusEnd);
  (*E)->setVmBackend(Kind);
  return E.takeValue();
}

/// Emits `Op` (a load into r1, or a store of r6) at \p Addr through base
/// r5: plainly, or as the AddI+mem pair the threaded engine fuses.
void emitAccess(Bytes &Code, Opcode Op, uint64_t Addr, bool Fused) {
  bool Store = Op >= Opcode::StB && Op <= Opcode::StD;
  int32_t Disp = Fused ? 0x10 : 0;
  emitInstruction(Code, {Opcode::LdI, 5, 0, 0,
                         static_cast<int32_t>(Addr) - 2 * Disp});
  if (Fused)
    emitInstruction(Code, {Opcode::AddI, 5, 5, 0, Disp});
  emitInstruction(Code, {Op, static_cast<uint8_t>(Store ? 0 : 1), 5,
                         static_cast<uint8_t>(Store ? 6 : 0), Disp});
}

/// A one-access program; stores write -0x12345678.
Bytes accessProgram(Opcode Op, uint64_t Addr, bool Fused = false) {
  Bytes Code;
  emitInstruction(Code, {Opcode::LdI, 6, 0, 0, -0x12345678});
  emitAccess(Code, Op, Addr, Fused);
  emitInstruction(Code, {Opcode::Halt});
  return Code;
}

using BusScenario = std::function<void(Enclave &, std::vector<ExecResult> &)>;

/// Runs ecall \p Name and records its outcome.
void busCall(Enclave &E, const std::string &Name,
             std::vector<ExecResult> &Results) {
  Expected<EcallResult> R = E.ecall(Name, {}, 0);
  EXPECT_TRUE(static_cast<bool>(R)) << R.errorMessage();
  Results.push_back(R ? R->Exec : ExecResult());
}

class EnclaveBusVmTest : public ::testing::TestWithParam<VmBackendKind> {
protected:
  struct Outcome {
    std::vector<ExecResult> Results;
    Bytes Memory; ///< The data, read-only and stack pages afterwards.
  };

  static Outcome runOn(VmBackendKind Kind, const std::vector<Bytes> &Programs,
                       const BusScenario &Scenario) {
    SgxDevice D(1);
    std::unique_ptr<Enclave> E = buildBusEnclave(D, Kind, Programs);
    Outcome Out;
    if (!E)
      return Out;
    Scenario(*E, Out.Results);
    for (uint64_t Page : {BusData, BusReadOnly, BusStack}) {
      Expected<Bytes> Read = E->readMemory(Page, EpcPageSize);
      appendBytes(Out.Memory,
                  Read ? *Read : bytesOfString(Read.errorMessage()));
    }
    return Out;
  }

  /// Runs \p Scenario on the backend under test and on the reference, and
  /// expects identical ecall outcomes and memory. Returns the former.
  Outcome runBoth(const std::vector<Bytes> &Programs,
                  const BusScenario &Scenario) {
    Outcome Got = runOn(GetParam(), Programs, Scenario);
    Outcome Ref = runOn(VmBackendKind::Switch, Programs, Scenario);
    EXPECT_EQ(Got.Results.size(), Ref.Results.size());
    for (size_t I = 0; I < Got.Results.size() && I < Ref.Results.size(); ++I) {
      const ExecResult &A = Got.Results[I], &B = Ref.Results[I];
      EXPECT_EQ(A.Kind, B.Kind) << "ecall #" << I;
      EXPECT_EQ(A.Pc, B.Pc) << "ecall #" << I;
      EXPECT_EQ(A.InstructionsRetired, B.InstructionsRetired) << "ecall #" << I;
      EXPECT_EQ(A.Message, B.Message) << "ecall #" << I;
      EXPECT_EQ(A.ReturnValue, B.ReturnValue) << "ecall #" << I;
    }
    EXPECT_EQ(Got.Memory, Ref.Memory);
    return Got;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, EnclaveBusVmTest, ::testing::ValuesIn(allVmBackendKinds()),
    [](const ::testing::TestParamInfo<VmBackendKind> &Info) {
      return std::string(vmBackendKindName(Info.param));
    });

TEST_P(EnclaveBusVmTest, StoreToExecutablePageFaults) {
  Outcome O = runBoth(
      {accessProgram(Opcode::StD, 0x1800),
       accessProgram(Opcode::StB, 0x1800, /*Fused=*/true)},
      [](Enclave &E, std::vector<ExecResult> &R) {
        busCall(E, "p0", R);
        busCall(E, "p1", R);
      });
  ASSERT_EQ(O.Results.size(), 2u);
  for (const ExecResult &R : O.Results) {
    EXPECT_EQ(R.Kind, TrapKind::MemoryFault);
    EXPECT_EQ(R.Message,
              "store: permission fault at 0x1800: need -w-, page is r-x");
  }
  EXPECT_EQ(O.Results[0].Pc, 0x1010u);
  EXPECT_EQ(O.Results[1].Pc, 0x1118u);
}

TEST_P(EnclaveBusVmTest, LoadFromUnmappedPageFaults) {
  Outcome O = runBoth({accessProgram(Opcode::LdD, 0x4008),
                       accessProgram(Opcode::LdBU, BusEnd, /*Fused=*/true)},
                      [](Enclave &E, std::vector<ExecResult> &R) {
                        busCall(E, "p0", R);
                        busCall(E, "p1", R);
                      });
  ASSERT_EQ(O.Results.size(), 2u);
  EXPECT_EQ(O.Results[0].Message,
            "load: page fault at 0x4008 (no EPC page mapped)");
  EXPECT_EQ(O.Results[1].Message,
            "load: page fault at 0x7000 (no EPC page mapped)");
}

TEST_P(EnclaveBusVmTest, StraddlingAccessesFaultWithoutEffect) {
  // Loads may cross into a readable page; stores into a read-only or an
  // unmapped page fault on it and leave the first page as it was.
  Outcome O = runBoth(
      {accessProgram(Opcode::LdD, 0x2ffc),
       accessProgram(Opcode::StD, 0x2ffc),
       accessProgram(Opcode::StW, 0x2ffe, /*Fused=*/true),
       accessProgram(Opcode::LdD, 0x3ffd),
       accessProgram(Opcode::LdHU, 0x3fff, /*Fused=*/true),
       accessProgram(Opcode::StD, 0x6ffc),
       accessProgram(Opcode::StH, 0x6fff, /*Fused=*/true)},
      [](Enclave &E, std::vector<ExecResult> &R) {
        for (int I = 0; I < 7; ++I)
          busCall(E, "p" + std::to_string(I), R);
      });
  ASSERT_EQ(O.Results.size(), 7u);
  Bytes Pattern = busPattern();
  Bytes Across(Pattern.end() - 4, Pattern.end());
  appendBytes(Across, BytesView(Pattern.data(), 4));
  EXPECT_TRUE(O.Results[0].halted()) << O.Results[0].Message;
  EXPECT_EQ(O.Results[0].ReturnValue, readLE64(Across.data()));
  for (int I : {1, 2})
    EXPECT_EQ(O.Results[I].Message,
              "store: permission fault at 0x3000: need -w-, page is r--");
  for (int I : {3, 4})
    EXPECT_EQ(O.Results[I].Message,
              "load: page fault at 0x4000 (no EPC page mapped)");
  for (int I : {5, 6})
    EXPECT_EQ(O.Results[I].Message,
              "store: page fault at 0x7000 (no EPC page mapped)");
  // Data, read-only and stack pages are exactly as EADD left them.
  Bytes Expected = Pattern;
  appendBytes(Expected, Pattern);
  Expected.resize(3 * EpcPageSize, 0);
  EXPECT_EQ(O.Memory, Expected);
}

TEST_P(EnclaveBusVmTest, EvictedPageFaultsUntilReloaded) {
  Outcome O = runBoth(
      {accessProgram(Opcode::LdD, 0x2008),
       accessProgram(Opcode::LdWS, 0x2008, /*Fused=*/true),
       accessProgram(Opcode::StD, 0x2010)},
      [](Enclave &E, std::vector<ExecResult> &R) {
        busCall(E, "p0", R);
        Expected<Bytes> Blob = E.evictPage(BusData);
        ASSERT_TRUE(static_cast<bool>(Blob));
        busCall(E, "p0", R);
        busCall(E, "p1", R);
        busCall(E, "p2", R);
        ASSERT_FALSE(static_cast<bool>(E.reloadPage(BusData, *Blob)));
        busCall(E, "p0", R);
        busCall(E, "p1", R);
        busCall(E, "p2", R);
      });
  ASSERT_EQ(O.Results.size(), 7u);
  uint64_t Before = O.Results[0].ReturnValue;
  EXPECT_EQ(Before, readLE64(busPattern().data() + 8));
  EXPECT_EQ(O.Results[1].Message,
            "load: page fault at 0x2008 (no EPC page mapped)");
  EXPECT_EQ(O.Results[2].Message,
            "load: page fault at 0x2008 (no EPC page mapped)");
  EXPECT_EQ(O.Results[3].Message,
            "store: page fault at 0x2010 (no EPC page mapped)");
  for (int I : {4, 5, 6})
    EXPECT_TRUE(O.Results[I].halted()) << O.Results[I].Message;
  EXPECT_EQ(O.Results[4].ReturnValue, Before);
  EXPECT_EQ(readLE64(O.Memory.data() + 0x10),
            static_cast<uint64_t>(int64_t{-0x12345678}));
}

TEST_P(EnclaveBusVmTest, RestrictedPageRefusesStores) {
  Outcome O = runBoth(
      {accessProgram(Opcode::StD, 0x2020),
       accessProgram(Opcode::StW, 0x2028, /*Fused=*/true),
       accessProgram(Opcode::LdD, 0x2020)},
      [](Enclave &E, std::vector<ExecResult> &R) {
        busCall(E, "p0", R);
        ASSERT_FALSE(
            static_cast<bool>(E.restrictPagePermissions(BusData, PermWrite)));
        busCall(E, "p0", R);
        busCall(E, "p1", R);
        busCall(E, "p2", R);
        ASSERT_FALSE(
            static_cast<bool>(E.extendPagePermissions(BusData, PermWrite)));
        busCall(E, "p1", R);
      });
  ASSERT_EQ(O.Results.size(), 5u);
  EXPECT_TRUE(O.Results[0].halted()) << O.Results[0].Message;
  EXPECT_EQ(O.Results[1].Message,
            "store: permission fault at 0x2020: need -w-, page is r--");
  EXPECT_EQ(O.Results[2].Message,
            "store: permission fault at 0x2028: need -w-, page is r--");
  EXPECT_TRUE(O.Results[3].halted()) << O.Results[3].Message;
  EXPECT_EQ(O.Results[3].ReturnValue,
            static_cast<uint64_t>(int64_t{-0x12345678}));
  EXPECT_TRUE(O.Results[4].halted()) << O.Results[4].Message;
  EXPECT_EQ(readLE32(O.Memory.data() + 0x28),
            static_cast<uint32_t>(-0x12345678));
}

TEST_P(EnclaveBusVmTest, InPageLoadsAndStoresSucceed) {
  // Every width, plain and fused, on the data page; a load from the
  // read-only page; a store and load on the stack page.
  Bytes Code;
  auto Emit = [&Code](Opcode Op, uint8_t Rd = 0, uint8_t Rs1 = 0,
                      uint8_t Rs2 = 0, int32_t Imm = 0) {
    emitInstruction(Code, {Op, Rd, Rs1, Rs2, Imm});
  };
  Emit(Opcode::LdI, 6, 0, 0, -0x12345678);
  Emit(Opcode::LdI, 5, 0, 0, 0x2100);
  Emit(Opcode::StB, 0, 5, 6, 0);
  Emit(Opcode::StH, 0, 5, 6, 2);
  Emit(Opcode::StW, 0, 5, 6, 4);
  Emit(Opcode::StD, 0, 5, 6, 8);
  Emit(Opcode::LdBS, 7, 5, 0, 0);
  Emit(Opcode::LdHU, 8, 5, 0, 2);
  Emit(Opcode::LdWS, 9, 5, 0, 4);
  Emit(Opcode::LdD, 10, 5, 0, 8);
  Emit(Opcode::AddI, 11, 5, 0, 0x40); // fused with the store
  Emit(Opcode::StD, 0, 11, 6, 8);
  Emit(Opcode::AddI, 12, 5, 0, 0x40); // fused with the load
  Emit(Opcode::LdD, 13, 12, 0, 8);
  Emit(Opcode::LdI, 14, 0, 0, static_cast<int32_t>(BusReadOnly));
  Emit(Opcode::LdD, 15, 14, 0, 0x10);
  Emit(Opcode::LdI, 16, 0, 0, static_cast<int32_t>(BusStack));
  Emit(Opcode::StW, 0, 16, 6, 0x800);
  Emit(Opcode::LdWU, 17, 16, 0, 0x800);
  Emit(Opcode::Add, 1, 7, 8);
  Emit(Opcode::Add, 1, 1, 9);
  Emit(Opcode::Add, 1, 1, 10);
  Emit(Opcode::Add, 1, 1, 13);
  Emit(Opcode::Xor, 1, 1, 15);
  Emit(Opcode::Add, 1, 1, 17);
  Emit(Opcode::Halt);
  Outcome O = runBoth({Code}, [](Enclave &E, std::vector<ExecResult> &R) {
    busCall(E, "p0", R);
  });
  ASSERT_EQ(O.Results.size(), 1u);
  ASSERT_TRUE(O.Results[0].halted()) << O.Results[0].Message;
  uint64_t V = static_cast<uint64_t>(int64_t{-0x12345678});
  uint64_t Expect = static_cast<uint64_t>(int64_t{static_cast<int8_t>(V)}) +
                    (V & 0xffff) + V + V + V;
  Expect ^= readLE64(busPattern().data() + 0x10);
  Expect += V & 0xffffffff;
  EXPECT_EQ(O.Results[0].ReturnValue, Expect);
  EXPECT_EQ(O.Results[0].InstructionsRetired, 26u);
  EXPECT_EQ(readLE64(O.Memory.data() + 0x148), V);
}

//===----------------------------------------------------------------------===//
// Sealing
//===----------------------------------------------------------------------===//

TEST(SealingTest, RoundTripWithAad) {
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> E =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  ASSERT_TRUE(static_cast<bool>(E));
  Bytes Secret = bytesOfString("the cake is a lie");
  Bytes Aad = bytesOfString("v1");
  Expected<Bytes> Blob = (*E)->seal(SealPolicy::MrEnclave, Secret, Aad);
  ASSERT_TRUE(static_cast<bool>(Blob));
  Expected<Unsealed> Back = (*E)->unseal(*Blob);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(Back->Plaintext, Secret);
  EXPECT_EQ(Back->Aad, Aad);
}

TEST(SealingTest, TamperedBlobRejected) {
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> E =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  ASSERT_TRUE(static_cast<bool>(E));
  Expected<Bytes> Blob =
      (*E)->seal(SealPolicy::MrEnclave, bytesOfString("x"), {});
  ASSERT_TRUE(static_cast<bool>(Blob));
  Bytes Bad = *Blob;
  Bad.back() ^= 1;
  EXPECT_FALSE(static_cast<bool>((*E)->unseal(Bad)));
  EXPECT_FALSE(static_cast<bool>((*E)->unseal(Bytes(10, 0))));
}

TEST(SealingTest, MrEnclavePolicyBindsToExactEnclave) {
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> E1 =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  Expected<std::unique_ptr<Enclave>> E2 =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 2)); // different code
  ASSERT_TRUE(static_cast<bool>(E1));
  ASSERT_TRUE(static_cast<bool>(E2));
  Expected<Bytes> Blob =
      (*E1)->seal(SealPolicy::MrEnclave, bytesOfString("s"), {});
  ASSERT_TRUE(static_cast<bool>(Blob));
  EXPECT_FALSE(static_cast<bool>((*E2)->unseal(*Blob)))
      << "a different enclave must not unseal MRENCLAVE-policy data";
}

TEST(SealingTest, MrSignerPolicySharesAcrossVendorEnclaves) {
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> E1 =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  Expected<std::unique_ptr<Enclave>> E2 =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 2));
  ASSERT_TRUE(static_cast<bool>(E1));
  ASSERT_TRUE(static_cast<bool>(E2));
  Expected<Bytes> Blob =
      (*E1)->seal(SealPolicy::MrSigner, bytesOfString("shared"), {});
  ASSERT_TRUE(static_cast<bool>(Blob));
  Expected<Unsealed> Back = (*E2)->unseal(*Blob);
  ASSERT_TRUE(static_cast<bool>(Back))
      << "same-vendor enclave must unseal MRSIGNER-policy data";
  EXPECT_EQ(stringOfBytes(Back->Plaintext), "shared");
}

TEST(SealingTest, OtherDeviceCannotUnseal) {
  SgxDevice D1(1), D2(2);
  Expected<std::unique_ptr<Enclave>> E1 =
      buildTinyEnclave(D1, AttrDebug, Bytes(16, 1));
  Expected<std::unique_ptr<Enclave>> E2 =
      buildTinyEnclave(D2, AttrDebug, Bytes(16, 1)); // identical enclave!
  ASSERT_TRUE(static_cast<bool>(E1));
  ASSERT_TRUE(static_cast<bool>(E2));
  Expected<Bytes> Blob =
      (*E1)->seal(SealPolicy::MrEnclave, bytesOfString("s"), {});
  ASSERT_TRUE(static_cast<bool>(Blob));
  EXPECT_FALSE(static_cast<bool>((*E2)->unseal(*Blob)))
      << "seal keys must be device-bound";
}

//===----------------------------------------------------------------------===//
// Reports and quotes
//===----------------------------------------------------------------------===//

TEST(AttestationTest, LocalReportVerifiesOnlyForTarget) {
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> A =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  Expected<std::unique_ptr<Enclave>> B =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 2));
  ASSERT_TRUE(static_cast<bool>(A));
  ASSERT_TRUE(static_cast<bool>(B));

  ReportData Rd{};
  Rd[0] = 42;
  Report R = (*A)->createReport(TargetInfo{(*B)->mrEnclave()}, Rd);
  EXPECT_TRUE((*B)->verifyReportForMe(R));
  EXPECT_FALSE((*A)->verifyReportForMe(R)) << "wrong target";

  Report Tampered = R;
  Tampered.Body.Data[0] = 43;
  EXPECT_FALSE((*B)->verifyReportForMe(Tampered));
}

TEST(AttestationTest, QuoteChainVerifies) {
  SgxDevice D(1);
  AttestationAuthority Authority(5);
  QuotingEnclave Qe(D, Authority);
  Expected<std::unique_ptr<Enclave>> E =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  ASSERT_TRUE(static_cast<bool>(E));

  ReportData Rd{};
  Report R = (*E)->createReport(Qe.targetInfo(), Rd);
  Expected<Quote> Q = Qe.quoteReport(R);
  ASSERT_TRUE(static_cast<bool>(Q)) << Q.errorMessage();

  Expected<ReportBody> Body =
      AttestationAuthority::verifyQuote(*Q, Authority.publicKey());
  ASSERT_TRUE(static_cast<bool>(Body)) << Body.errorMessage();
  EXPECT_EQ(Body->MrEnclave, (*E)->mrEnclave());
}

TEST(AttestationTest, QeRejectsForeignReports) {
  SgxDevice D1(1), D2(2);
  AttestationAuthority Authority(5);
  QuotingEnclave Qe1(D1, Authority);
  Expected<std::unique_ptr<Enclave>> E =
      buildTinyEnclave(D2, AttrDebug, Bytes(16, 1)); // other device!
  ASSERT_TRUE(static_cast<bool>(E));
  Report R = (*E)->createReport(Qe1.targetInfo(), ReportData{});
  EXPECT_FALSE(static_cast<bool>(Qe1.quoteReport(R)))
      << "reports from another device must not be quotable";
}

TEST(AttestationTest, TamperedQuoteFailsVerification) {
  SgxDevice D(1);
  AttestationAuthority Authority(5);
  QuotingEnclave Qe(D, Authority);
  Expected<std::unique_ptr<Enclave>> E =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  ASSERT_TRUE(static_cast<bool>(E));
  Expected<Quote> Q =
      Qe.quoteReport((*E)->createReport(Qe.targetInfo(), ReportData{}));
  ASSERT_TRUE(static_cast<bool>(Q));

  Quote Bad = *Q;
  Bad.Body.MrEnclave[0] ^= 1;
  EXPECT_FALSE(static_cast<bool>(
      AttestationAuthority::verifyQuote(Bad, Authority.publicKey())));

  Quote BadKey = *Q;
  BadKey.AttestationKey[0] ^= 1;
  EXPECT_FALSE(static_cast<bool>(
      AttestationAuthority::verifyQuote(BadKey, Authority.publicKey())));

  // Serialization round trip.
  Expected<Quote> Back = Quote::deserialize(Q->serialize());
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_TRUE(static_cast<bool>(
      AttestationAuthority::verifyQuote(*Back, Authority.publicKey())));
}

//===----------------------------------------------------------------------===//
// EPC eviction (EWB/ELDU)
//===----------------------------------------------------------------------===//

TEST(EpcPagingTest, EvictThenReloadRestoresContents) {
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> E =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  ASSERT_TRUE(static_cast<bool>(E));
  Bytes Data = bytesOfString("resident page data");
  ASSERT_FALSE(static_cast<bool>((*E)->writeMemory(0x2000, Data)));

  Expected<Bytes> Blob = (*E)->evictPage(0x2000);
  ASSERT_TRUE(static_cast<bool>(Blob));
  // While evicted, accesses fault.
  EXPECT_TRUE(static_cast<bool>((*E)->readMemory(0x2000, 4).takeError()));
  // The blob is ciphertext: the plaintext must not appear in it.
  std::string BlobStr = stringOfBytes(*Blob);
  EXPECT_EQ(BlobStr.find("resident page"), std::string::npos);

  ASSERT_FALSE(static_cast<bool>((*E)->reloadPage(0x2000, *Blob)));
  Expected<Bytes> Back = (*E)->readMemory(0x2000, Data.size());
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Data);
}

TEST(EpcPagingTest, TamperedOrMisdirectedBlobRejected) {
  SgxDevice D(1);
  Expected<std::unique_ptr<Enclave>> E =
      buildTinyEnclave(D, AttrDebug, Bytes(16, 1));
  ASSERT_TRUE(static_cast<bool>(E));
  Expected<Bytes> Blob = (*E)->evictPage(0x2000);
  ASSERT_TRUE(static_cast<bool>(Blob));

  Bytes Tampered = *Blob;
  Tampered[100] ^= 1;
  EXPECT_TRUE(static_cast<bool>((*E)->reloadPage(0x2000, Tampered)));

  // Cannot reload at a different address (AAD binds the vaddr).
  EXPECT_TRUE(static_cast<bool>((*E)->reloadPage(0x1000, *Blob)));

  // Untampered blob still loads.
  EXPECT_FALSE(static_cast<bool>((*E)->reloadPage(0x2000, *Blob)));
}

//===----------------------------------------------------------------------===//
// Loader
//===----------------------------------------------------------------------===//

TEST(LoaderTest, OfflineMeasurementMatchesLoad) {
  // The vendor signs offline; the device measures at load. They must
  // agree or nothing ever launches.
  Expected<elc::CompileResult> App = elc::compileEnclave(
      ElideTrustedLib::runtimeSources(), ElideTrustedLib::callRegistry());
  ASSERT_TRUE(static_cast<bool>(App)) << App.errorMessage();

  EnclaveLayout Layout;
  Expected<Measurement> Offline = measureEnclaveImage(App->ElfFile, Layout);
  ASSERT_TRUE(static_cast<bool>(Offline));

  SgxDevice D(1);
  SigStruct Sig = SigStruct::sign(testVendor(), *Offline, AttrDebug);
  Expected<std::unique_ptr<Enclave>> E =
      loadEnclave(D, App->ElfFile, Sig, Layout);
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  EXPECT_EQ((*E)->mrEnclave(), *Offline);
}

TEST(LoaderTest, LayoutChangesChangeMeasurement) {
  Expected<elc::CompileResult> App = elc::compileEnclave(
      ElideTrustedLib::runtimeSources(), ElideTrustedLib::callRegistry());
  ASSERT_TRUE(static_cast<bool>(App));
  EnclaveLayout A, B;
  B.HeapSize = A.HeapSize * 2;
  Expected<Measurement> Ma = measureEnclaveImage(App->ElfFile, A);
  Expected<Measurement> Mb = measureEnclaveImage(App->ElfFile, B);
  ASSERT_TRUE(static_cast<bool>(Ma));
  ASSERT_TRUE(static_cast<bool>(Mb));
  EXPECT_NE(*Ma, *Mb) << "heap pages are EADDed and therefore measured";
}

} // namespace
