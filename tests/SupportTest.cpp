//===- tests/SupportTest.cpp - Support library unit tests ---------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "crypto/Drbg.h"
#include "server/FaultInjection.h"
#include "support/AtomicFile.h"
#include "support/Backoff.h"
#include "support/Bytes.h"
#include "support/Error.h"
#include "support/FaultSchedule.h"
#include "support/File.h"
#include "support/Hex.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace elide;

namespace {

TEST(ErrorTest, SuccessAndFailureStates) {
  Error Ok = Error::success();
  EXPECT_FALSE(static_cast<bool>(Ok));
  Error Bad = makeError("boom");
  EXPECT_TRUE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.message(), "boom");
}

TEST(ExpectedTest, ValueAndErrorPaths) {
  Expected<int> V(42);
  ASSERT_TRUE(static_cast<bool>(V));
  EXPECT_EQ(*V, 42);
  EXPECT_FALSE(static_cast<bool>(V.takeError()));

  Expected<int> E(makeError("nope"));
  ASSERT_FALSE(static_cast<bool>(E));
  EXPECT_EQ(E.errorMessage(), "nope");
  Error Taken = E.takeError();
  EXPECT_TRUE(static_cast<bool>(Taken));
}

Expected<int> half(int X) {
  if (X % 2)
    return makeError("odd");
  return X / 2;
}

Expected<int> quarter(int X) {
  ELIDE_TRY(int H, half(X));
  ELIDE_TRY(int Q, half(H));
  return Q;
}

TEST(ExpectedTest, TryMacroPropagates) {
  Expected<int> Q = quarter(8);
  ASSERT_TRUE(static_cast<bool>(Q));
  EXPECT_EQ(*Q, 2);
  EXPECT_FALSE(static_cast<bool>(quarter(6))); // 6/2=3 is odd
  EXPECT_FALSE(static_cast<bool>(quarter(7)));
}

/// Draws no jitter, so a test reads the capped doubling alone.
struct NoJitter {
  uint64_t nextBelow(uint64_t /*Bound*/) { return 0; }
};

/// Always draws the largest jitter, so an upper bound holds for any seed.
struct MaxJitter {
  uint64_t nextBelow(uint64_t Bound) { return Bound - 1; }
};

TEST(BackoffTest, DoublesFromTheBaseUpToTheCap) {
  NoJitter Zero;
  EXPECT_EQ(jitteredBackoffMs(25, 1, 1000, Zero), 25);
  EXPECT_EQ(jitteredBackoffMs(25, 2, 1000, Zero), 50);
  EXPECT_EQ(jitteredBackoffMs(25, 3, 1000, Zero), 100);
  EXPECT_EQ(jitteredBackoffMs(25, 6, 1000, Zero), 800);
  EXPECT_EQ(jitteredBackoffMs(25, 7, 1000, Zero), 1000);
  // A step below 1 waits the base; a base above the cap is kept.
  EXPECT_EQ(jitteredBackoffMs(25, 0, 1000, Zero), 25);
  EXPECT_EQ(jitteredBackoffMs(3000, 4, 2000, Zero), 3000);
}

TEST(BackoffTest, JitterAddsAtMostHalfTheWait) {
  MaxJitter Max;
  EXPECT_EQ(jitteredBackoffMs(100, 1, 2000, Max), 150);
  EXPECT_EQ(jitteredBackoffMs(1, 1, 1000, Max), 1);
  // A base of 0 waits 0, however many steps.
  EXPECT_EQ(jitteredBackoffMs(0, 5, 1000, Max), 0);
  EXPECT_EQ(jitteredBackoffMs(-5, 5, 1000, Max), 0);

  Drbg Rng(7);
  long long Lowest = 1000, Highest = 0;
  for (int I = 0; I < 500; ++I) {
    long long Wait = jitteredBackoffMs(60, 1, 60, Rng);
    Lowest = std::min(Lowest, Wait);
    Highest = std::max(Highest, Wait);
  }
  EXPECT_GE(Lowest, 60);
  EXPECT_LE(Highest, 90);
  EXPECT_LT(Lowest, Highest) << "the seeded jitter never varied";
}

TEST(BackoffTest, CappedAtStepSeventy) {
  // More steps than a 64-bit wait has bits: the doubling stays capped,
  // and no arithmetic overflows on the way.
  MaxJitter Max;
  for (long long Base : {0LL, 1LL, 25LL})
    EXPECT_LE(jitteredBackoffMs(Base, 70, 1000, Max), 1500) << "base " << Base;
  EXPECT_EQ(jitteredBackoffMs(1, 70, 1000, Max), 1500);
  EXPECT_EQ(jitteredBackoffMs(25, 70, 1000, Max), 1500);

  long long Huge = std::numeric_limits<long long>::max();
  EXPECT_GT(jitteredBackoffMs(Huge, std::numeric_limits<int>::max(), Huge,
                              Max),
            0);
  EXPECT_EQ(jitteredBackoffMs(1, std::numeric_limits<int>::max(), 1000, Max),
            1500);
}

//===----------------------------------------------------------------------===//
// The fault schedule's draw discipline
//===----------------------------------------------------------------------===//

bool canApply(const std::vector<FaultKind> &Applicable, FaultKind Kind) {
  return std::find(Applicable.begin(), Applicable.end(), Kind) !=
         Applicable.end();
}

TEST(FaultScheduleTest, OnePlanDecidesAlikePointForPoint) {
  // Only the second schedule sees its applicable set change and draws
  // effects between points. What a point can apply masks that point's
  // decision and never moves a later one.
  FaultPlan Plan;
  Plan.Seed = 99;
  Plan.FaultPerMille = 500;
  Plan.RateKinds = {FaultKind::Drop, FaultKind::Truncate,
                    FaultKind::TrapScribble, FaultKind::RestoreFail};
  const std::vector<std::vector<FaultKind>> Sets = {
      Plan.RateKinds,
      {FaultKind::TrapScribble, FaultKind::BudgetClamp},
      {FaultKind::Drop},
      {}};
  FaultSchedule<Drbg> Steady(Plan), Shifting(Plan);
  size_t Fired = 0, Masked = 0;
  for (size_t Point = 0; Point < 400; ++Point) {
    const std::vector<FaultKind> &Applicable = Sets[Point % Sets.size()];
    FaultKind Full = Steady.next(Sets[0]);
    FaultKind Seen = Shifting.next(Applicable);
    (void)Shifting.effectBelow(1 + Point);
    bool Applies = canApply(Applicable, Full);
    EXPECT_EQ(Seen, Applies ? Full : FaultKind::None) << "point " << Point;
    Fired += Full != FaultKind::None;
    Masked += Full != FaultKind::None && !Applies;
  }
  EXPECT_GT(Masked, 0u);
  EXPECT_GT(Fired, Masked);
}

TEST(FaultScheduleTest, ScriptedKindThePointCannotApplyUsesItsSlot) {
  FaultPlan Plan;
  Plan.Script = {FaultKind::TrapScribble, FaultKind::Drop, FaultKind::None,
                 FaultKind::RestoreFail, FaultKind::Truncate};
  FaultSchedule<Drbg> Schedule(Plan);
  std::vector<FaultKind> Seen;
  for (int Point = 0; Point < 6; ++Point)
    Seen.push_back(Schedule.next(TransportFaultKinds));
  EXPECT_EQ(Seen, (std::vector<FaultKind>{FaultKind::None, FaultKind::Drop,
                                          FaultKind::None, FaultKind::None,
                                          FaultKind::Truncate,
                                          FaultKind::None}));
  EXPECT_EQ(Schedule.counts().Points, 6u);
}

TEST(FaultScheduleTest, EmptyRateKindsPickFromThePointsKinds) {
  FaultPlan Plan;
  Plan.Seed = 5;
  Plan.FaultPerMille = 1000;
  FaultSchedule<Drbg> Schedule(Plan);
  const std::vector<FaultKind> Ecall = {FaultKind::TrapScribble,
                                        FaultKind::BudgetClamp};
  const std::vector<FaultKind> Restore = {FaultKind::RestoreFail};
  size_t Scribbles = 0, Clamps = 0;
  for (int Point = 0; Point < 64; ++Point) {
    FaultKind K = Schedule.next(Ecall);
    EXPECT_TRUE(canApply(Ecall, K)) << faultKindName(K);
    Scribbles += K == FaultKind::TrapScribble;
    Clamps += K == FaultKind::BudgetClamp;
    EXPECT_EQ(Schedule.next(Restore), FaultKind::RestoreFail);
  }
  EXPECT_GT(Scribbles, 0u);
  EXPECT_GT(Clamps, 0u);
  EXPECT_EQ(Schedule.next({}), FaultKind::None);
}

TEST(FaultScheduleTest, CountsAreTheFaultsApplied) {
  FaultPlan Plan;
  Plan.Script = {FaultKind::Drop, FaultKind::Truncate, FaultKind::Truncate,
                 FaultKind::None};
  FaultSchedule<Drbg> Schedule(Plan);
  // The injector applies the drop and the first truncation; the second
  // truncation finds nothing to cut and is not reported, and None counts
  // nothing.
  Schedule.applied(Schedule.next(TransportFaultKinds));
  Schedule.applied(Schedule.next(TransportFaultKinds));
  EXPECT_EQ(Schedule.next(TransportFaultKinds), FaultKind::Truncate);
  Schedule.applied(Schedule.next(TransportFaultKinds));
  FaultCounts C = Schedule.counts();
  EXPECT_EQ(C.Points, 4u);
  EXPECT_EQ(C.of(FaultKind::Drop), 1u);
  EXPECT_EQ(C.of(FaultKind::Truncate), 1u);
  EXPECT_EQ(C.of(FaultKind::None), 0u);
  EXPECT_EQ(C.injected(), 2u);
}

/// A link whose every answer is \p Size bytes.
struct FixedAnswerLink : Transport {
  size_t Size;
  explicit FixedAnswerLink(size_t Size) : Size(Size) {}
  Expected<Bytes> roundTrip(BytesView) override { return Bytes(Size, 0x5a); }
};

TEST(FaultScheduleTest, TransportDropsDoNotDependOnAnswerLength) {
  // A truncation cuts only answers longer than one byte, and draws its
  // cut from the effect stream: cutting cannot move which calls drop.
  FaultPlan Plan;
  Plan.Seed = 17;
  Plan.FaultPerMille = 500;
  Plan.RateKinds = {FaultKind::Drop, FaultKind::Truncate};
  auto run = [&Plan](size_t AnswerSize, size_t &Cut) {
    FixedAnswerLink Inner(AnswerSize);
    FaultInjectingTransport Faulty(Inner, Plan);
    std::vector<size_t> Drops;
    for (size_t Call = 0; Call < 200; ++Call) {
      Expected<Bytes> R = Faulty.roundTrip(Bytes{1});
      if (!R && transportErrcOf(R) == TransportErrc::InjectedFault)
        Drops.push_back(Call);
      else if (R && R->size() < AnswerSize)
        ++Cut;
    }
    return Drops;
  };
  size_t ShortCut = 0, LongCut = 0;
  std::vector<size_t> Short = run(1, ShortCut);
  std::vector<size_t> Long = run(100, LongCut);
  EXPECT_FALSE(Short.empty());
  EXPECT_EQ(ShortCut, 0u);
  EXPECT_GT(LongCut, 0u);
  EXPECT_EQ(Short, Long);
}

TEST(RetryabilityTest, EveryCodeOfEveryEnumClassifies) {
  // The shared table must cover every enumerator of all three failure
  // vocabularies with an explicit verdict. The switches are default-free
  // (the compiler flags a *new* enumerator), but nothing flags a row that
  // drifted to the wrong verdict -- this test pins each one.
  struct TransportRow {
    TransportErrc Errc;
    Retryability Want;
  };
  const TransportRow TransportRows[] = {
      {TransportErrc::None, Retryability::Terminal},
      {TransportErrc::ConnectFailed, Retryability::Retryable},
      {TransportErrc::ConnectTimeout, Retryability::Retryable},
      {TransportErrc::ReadTimeout, Retryability::Retryable},
      {TransportErrc::WriteTimeout, Retryability::Retryable},
      {TransportErrc::PeerClosed, Retryability::Retryable},
      {TransportErrc::FrameTooLarge, Retryability::Terminal},
      {TransportErrc::BadAddress, Retryability::Terminal},
      {TransportErrc::InjectedFault, Retryability::Retryable},
      {TransportErrc::Overloaded, Retryability::Retryable},
      {TransportErrc::BreakerOpen, Retryability::Retryable},
      {TransportErrc::AllEndpointsFailed, Retryability::Retryable},
      {TransportErrc::DeadlineExceeded, Retryability::Terminal},
      {TransportErrc::RetryBudgetExhausted, Retryability::Terminal},
  };
  // The table enumerates the full errc range: 101 .. TransportErrcLast
  // less the unused 108, plus None. A row count mismatch means someone
  // added a code without a row here.
  EXPECT_EQ(sizeof(TransportRows) / sizeof(TransportRows[0]),
            static_cast<size_t>(TransportErrcLast) - 101 + 1);
  for (const TransportRow &Row : TransportRows) {
    EXPECT_EQ(retryabilityOf(Row.Errc), Row.Want)
        << "TransportErrc " << static_cast<int>(Row.Errc);
    EXPECT_EQ(isRetryableTransportErrc(Row.Errc),
              Row.Want == Retryability::Retryable);
  }

  struct RestoreRow {
    RestoreStatus Status;
    Retryability Want;
  };
  const RestoreRow RestoreRows[] = {
      {RestoreOk, Retryability::Terminal},
      {RestoreNoSecrets, Retryability::Terminal},
      {RestoreShortSecrets, Retryability::Retryable},
      {RestoreQuoteFailed, Retryability::Retryable},
      {RestoreServerUnreachable, Retryability::Retryable},
      {RestoreRejected, Retryability::Terminal},
      {RestoreMetaFetchFailed, Retryability::Retryable},
      {RestoreMetaParseFailed, Retryability::Terminal},
      {RestoreDataFetchFailed, Retryability::Retryable},
  };
  for (const RestoreRow &Row : RestoreRows) {
    EXPECT_EQ(retryabilityOf(Row.Status), Row.Want)
        << "RestoreStatus " << static_cast<uint64_t>(Row.Status);
    EXPECT_EQ(isRetryableRestoreStatus(Row.Status),
              Row.Want == Retryability::Retryable);
    EXPECT_TRUE(restoreStatusFromRaw(Row.Status).has_value());
  }
  // Out-of-table raw statuses classify terminal, never spin.
  EXPECT_FALSE(restoreStatusFromRaw(999).has_value());
  EXPECT_FALSE(isRetryableRestoreStatus(999));

  struct LifecycleRow {
    LifecycleErrc Errc;
    Retryability Want;
  };
  const LifecycleRow LifecycleRows[] = {
      {LifecycleErrc::None, Retryability::Terminal},
      {LifecycleErrc::NotLoaded, Retryability::Terminal},
      {LifecycleErrc::NotRestored, Retryability::Terminal},
      {LifecycleErrc::ReentrantEcall, Retryability::Terminal},
      {LifecycleErrc::QuarantinedRetryLater, Retryability::Retryable},
      {LifecycleErrc::CrashLoop, Retryability::Terminal},
      {LifecycleErrc::StaleGeneration, Retryability::Retryable},
      {LifecycleErrc::TerminalRestore, Retryability::Terminal},
      {LifecycleErrc::AlreadyLoaded, Retryability::Terminal},
  };
  for (const LifecycleRow &Row : LifecycleRows) {
    EXPECT_EQ(retryabilityOf(Row.Errc), Row.Want)
        << "LifecycleErrc " << static_cast<int>(Row.Errc);
    EXPECT_EQ(isRetryableLifecycleErrc(Row.Errc),
              Row.Want == Retryability::Retryable);
  }
}

TEST(BytesTest, EndianHelpers) {
  uint8_t Buf[8];
  writeLE64(Buf, 0x0102030405060708ULL);
  EXPECT_EQ(Buf[0], 0x08);
  EXPECT_EQ(Buf[7], 0x01);
  EXPECT_EQ(readLE64(Buf), 0x0102030405060708ULL);
  EXPECT_EQ(readLE32(Buf), 0x05060708u);
  EXPECT_EQ(readLE16(Buf), 0x0708u);

  writeBE64(Buf, 0x0102030405060708ULL);
  EXPECT_EQ(Buf[0], 0x01);
  EXPECT_EQ(readBE64(Buf), 0x0102030405060708ULL);
  EXPECT_EQ(readBE32(Buf), 0x01020304u);

  Bytes B;
  appendLE32(B, 0xaabbccdd);
  appendLE64(B, 1);
  EXPECT_EQ(B.size(), 12u);
  EXPECT_EQ(readLE32(B.data()), 0xaabbccddu);
}

TEST(BytesTest, StringConversions) {
  std::string S = "hello\0world"; // NUL truncates the literal: 5 chars
  Bytes B = bytesOfString(S);
  EXPECT_EQ(stringOfBytes(B), S);
  EXPECT_EQ(viewOf(S).size(), S.size());
}

TEST(HexTest, AddressesPrintHexAfterTheirPrefix) {
  EXPECT_EQ(hexAddress(0x17fc), "0x17fc");
  EXPECT_EQ(hexAddress(0), "0x0");
  EXPECT_EQ(hexAddress(UINT64_MAX), "0xffffffffffffffff");
}

TEST(FileTest, RoundTripAndMissing) {
  std::string Path = "/tmp/sgxelide_filetest.bin";
  Bytes Data = {0, 1, 2, 255, 254};
  ASSERT_FALSE(static_cast<bool>(writeFileBytes(Path, Data)));
  EXPECT_TRUE(fileExists(Path));
  Expected<Bytes> Back = readFileBytes(Path);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Data);
  removeFile(Path);
  EXPECT_FALSE(fileExists(Path));
  EXPECT_FALSE(static_cast<bool>(readFileBytes(Path)));
}

TEST(Crc32Test, KnownVectorsAndSensitivity) {
  // The classic check value for "123456789".
  Bytes Check = bytesOfString("123456789");
  EXPECT_EQ(crc32(Check), 0xcbf43926u);
  EXPECT_EQ(crc32(BytesView()), 0u);
  Bytes Flipped = Check;
  Flipped[4] ^= 1;
  EXPECT_NE(crc32(Flipped), crc32(Check));
}

TEST(VersionedBlobTest, RoundTrip) {
  Bytes Payload = {9, 8, 7, 6, 5, 0, 255};
  Bytes Container = encodeVersionedBlob(Payload);
  EXPECT_EQ(Container.size(), VersionedBlobHeaderSize + Payload.size());
  Expected<Bytes> Back = decodeVersionedBlob(Container);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Payload);

  // Empty payloads are legal (an empty sealed cache).
  Expected<Bytes> Empty = decodeVersionedBlob(encodeVersionedBlob({}));
  ASSERT_TRUE(static_cast<bool>(Empty));
  EXPECT_TRUE(Empty->empty());
}

TEST(VersionedBlobTest, RejectsTornAndCorrupt) {
  Bytes Container = encodeVersionedBlob(bytesOfString("sealed secrets"));

  // Truncated mid-header and mid-payload (torn writes).
  EXPECT_FALSE(static_cast<bool>(
      decodeVersionedBlob(BytesView(Container.data(), 5))));
  EXPECT_FALSE(static_cast<bool>(decodeVersionedBlob(
      BytesView(Container.data(), Container.size() - 3))));

  // Wrong magic, wrong version, flipped payload bit.
  Bytes BadMagic = Container;
  BadMagic[0] ^= 0xff;
  EXPECT_FALSE(static_cast<bool>(decodeVersionedBlob(BadMagic)));
  Bytes BadVersion = Container;
  BadVersion[8] ^= 0xff;
  EXPECT_FALSE(static_cast<bool>(decodeVersionedBlob(BadVersion)));
  Bytes BitRot = Container;
  BitRot[VersionedBlobHeaderSize + 2] ^= 0x10;
  EXPECT_FALSE(static_cast<bool>(decodeVersionedBlob(BitRot)));
}

TEST(AtomicFileTest, WriteLandsAtomically) {
  std::string Path = "/tmp/sgxelide_atomicfile.bin";
  removeFile(Path);
  removeFile(atomicTempPath(Path));

  Bytes First = bytesOfString("generation one");
  ASSERT_FALSE(static_cast<bool>(atomicWriteFileBytes(Path, First)));
  EXPECT_FALSE(fileExists(atomicTempPath(Path))); // Temp renamed away.
  Expected<Bytes> Back = readFileBytes(Path);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, First);

  Bytes Second = bytesOfString("generation two (longer than one)");
  ASSERT_FALSE(static_cast<bool>(atomicWriteFileBytes(Path, Second)));
  Back = readFileBytes(Path);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Second);
  removeFile(Path);
}

TEST(AtomicFileTest, CrashPointsNeverCorruptTheTarget) {
  std::string Path = "/tmp/sgxelide_atomicfile_crash.bin";
  removeFile(Path);
  removeFile(atomicTempPath(Path));

  Bytes Old = bytesOfString("previous generation");
  ASSERT_FALSE(static_cast<bool>(atomicWriteFileBytes(Path, Old)));

  // Crash mid temp-file write: target untouched, temp is torn.
  Bytes New = bytesOfString("next generation that never lands");
  EXPECT_TRUE(static_cast<bool>(
      atomicWriteFileBytes(Path, New, AtomicCrashPoint::MidTempWrite)));
  Expected<Bytes> Back = readFileBytes(Path);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Old);

  // Crash between fsync and rename: target still the old generation.
  EXPECT_TRUE(static_cast<bool>(
      atomicWriteFileBytes(Path, New, AtomicCrashPoint::AfterTempWrite)));
  Back = readFileBytes(Path);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Old);
  EXPECT_TRUE(fileExists(atomicTempPath(Path))); // The orphan a crash leaves.

  // The next write discards the stale temp and lands normally.
  ASSERT_FALSE(static_cast<bool>(atomicWriteFileBytes(Path, New)));
  EXPECT_FALSE(fileExists(atomicTempPath(Path)));
  Back = readFileBytes(Path);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, New);
  removeFile(Path);
}

TEST(AtomicFileTest, QuarantineMovesTheFileAside) {
  std::string Path = "/tmp/sgxelide_atomicfile_quar.bin";
  Bytes Junk = {1, 2, 3};
  ASSERT_FALSE(static_cast<bool>(writeFileBytes(Path, Junk)));
  std::string Quarantined = quarantineFile(Path);
  EXPECT_EQ(Quarantined, Path + ".quarantine");
  EXPECT_FALSE(fileExists(Path));
  Expected<Bytes> Preserved = readFileBytes(Quarantined);
  ASSERT_TRUE(static_cast<bool>(Preserved));
  EXPECT_EQ(*Preserved, Junk);
  removeFile(Quarantined);
}

TEST(StatsTest, SummaryMeanAndStdDev) {
  Summary S = summarize({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(S.Mean, 5.0);
  EXPECT_NEAR(S.StdDev, 2.138, 0.001); // sample stddev
  EXPECT_EQ(S.Count, 8u);

  Summary Empty = summarize({});
  EXPECT_EQ(Empty.Count, 0u);
  Summary One = summarize({3.5});
  EXPECT_DOUBLE_EQ(One.Mean, 3.5);
  EXPECT_DOUBLE_EQ(One.StdDev, 0.0);
}

TEST(StatsTest, TimerMeasuresElapsed) {
  Timer T;
  volatile uint64_t Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + static_cast<uint64_t>(I);
  EXPECT_GE(T.elapsedMs(), 0.0);
  double First = T.elapsedMs();
  T.reset();
  EXPECT_LE(T.elapsedMs(), First + 100.0);
}

} // namespace
