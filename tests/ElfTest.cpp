//===- tests/ElfTest.cpp - ELF builder/reader unit tests ---------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "elf/ElfBuilder.h"
#include "elf/ElfImage.h"

#include <gtest/gtest.h>

using namespace elide;

namespace {

/// Builds a small two-section image with symbols.
Expected<Bytes> buildSample() {
  ElfBuilder B;
  Bytes Text(64, 0x90);
  size_t TextSec = B.addProgbits(".text", 0x1000, Text,
                                 SHF_ALLOC | SHF_EXECINSTR);
  Bytes Data = {1, 2, 3, 4};
  size_t DataSec = B.addProgbits(".data", 0x2000, Data,
                                 SHF_ALLOC | SHF_WRITE);
  size_t BssSec = B.addNobits(".bss", 0x3000, 128, SHF_ALLOC | SHF_WRITE);
  B.addSymbol("fn_a", 0x1000, 32, STT_FUNC, TextSec);
  B.addSymbol("fn_b", 0x1020, 32, STT_FUNC, TextSec);
  B.addSymbol("glob", 0x2000, 4, STT_OBJECT, DataSec);
  B.addSymbol("zeros", 0x3000, 128, STT_OBJECT, BssSec);
  return B.build();
}

TEST(ElfBuilderTest, RoundTripsThroughParser) {
  Expected<Bytes> File = buildSample();
  ASSERT_TRUE(static_cast<bool>(File)) << File.errorMessage();
  Expected<ElfImage> Image = ElfImage::parse(*File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();

  EXPECT_EQ(Image->header().Machine, EM_SVM);
  EXPECT_EQ(Image->header().Type, ET_DYN);

  const ElfSection *Text = Image->sectionByName(".text");
  ASSERT_NE(Text, nullptr);
  EXPECT_EQ(Text->Addr, 0x1000u);
  EXPECT_EQ(Text->Size, 64u);
  EXPECT_EQ(Image->sectionContents(*Text), Bytes(64, 0x90));

  const ElfSection *Bss = Image->sectionByName(".bss");
  ASSERT_NE(Bss, nullptr);
  EXPECT_EQ(Bss->Type, SHT_NOBITS);
  EXPECT_EQ(Bss->Size, 128u);
  EXPECT_TRUE(Image->sectionContents(*Bss).empty());

  // Symbols.
  ASSERT_EQ(Image->symbols().size(), 4u);
  const ElfSymbol *FnB = Image->symbolByName("fn_b");
  ASSERT_NE(FnB, nullptr);
  EXPECT_TRUE(FnB->isFunction());
  EXPECT_EQ(FnB->Value, 0x1020u);
  EXPECT_EQ(FnB->Size, 32u);
  const ElfSymbol *Glob = Image->symbolByName("glob");
  ASSERT_NE(Glob, nullptr);
  EXPECT_TRUE(Glob->isObject());

  // Segments: one per alloc section, flags mapped from section flags.
  ASSERT_EQ(Image->segments().size(), 3u);
  EXPECT_EQ(Image->segments()[0].Flags, uint32_t{PF_R | PF_X});
  EXPECT_EQ(Image->segments()[1].Flags, uint32_t{PF_R | PF_W});
  EXPECT_EQ(Image->segments()[2].FileSize, 0u);
  EXPECT_EQ(Image->segments()[2].MemSize, 128u);

  // Alloc sections: file offset == vaddr.
  EXPECT_EQ(Text->Offset, Text->Addr);
}

TEST(ElfBuilderTest, RejectsUnalignedSection) {
  ElfBuilder B;
  B.addProgbits(".text", 0x1008, Bytes(8, 0), SHF_ALLOC | SHF_EXECINSTR);
  Expected<Bytes> File = B.build();
  ASSERT_FALSE(static_cast<bool>(File));
  EXPECT_NE(File.errorMessage().find("aligned"), std::string::npos);
}

TEST(ElfBuilderTest, RejectsOverlappingSections) {
  ElfBuilder B;
  B.addProgbits(".a", 0x1000, Bytes(0x2000, 0), SHF_ALLOC);
  B.addProgbits(".b", 0x2000, Bytes(16, 0), SHF_ALLOC);
  Expected<Bytes> File = B.build();
  ASSERT_FALSE(static_cast<bool>(File));
  EXPECT_NE(File.errorMessage().find("overlaps"), std::string::npos);
}

TEST(ElfBuilderTest, RejectsSectionEndingPast2To64) {
  // The end must not wrap to a small value that sizes the file buffer.
  ElfBuilder B;
  B.addProgbits(".text", 0xfffffffffffff000ULL, Bytes(0x2000, 0),
                SHF_ALLOC | SHF_EXECINSTR);
  Expected<Bytes> File = B.build();
  ASSERT_FALSE(static_cast<bool>(File));
  EXPECT_NE(File.errorMessage().find("ends past 2^64"), std::string::npos);
}

TEST(ElfImageTest, RejectsGarbage) {
  EXPECT_FALSE(static_cast<bool>(ElfImage::parse(Bytes(10, 0xab))));
  Bytes NotElf(200, 0);
  NotElf[0] = 0x7f;
  NotElf[1] = 'N';
  EXPECT_FALSE(static_cast<bool>(ElfImage::parse(NotElf)));
}

TEST(ElfImageTest, RejectsTruncatedSectionTable) {
  Expected<Bytes> File = buildSample();
  ASSERT_TRUE(static_cast<bool>(File));
  Bytes Truncated(File->begin(), File->begin() + File->size() / 2);
  // Either the header or a section/segment bound check must fire.
  EXPECT_FALSE(static_cast<bool>(ElfImage::parse(Truncated)));
}

TEST(ElfImageTest, ZeroRangeEditsRawBytes) {
  Expected<Bytes> File = buildSample();
  ASSERT_TRUE(static_cast<bool>(File));
  Expected<ElfImage> Image = ElfImage::parse(*File);
  ASSERT_TRUE(static_cast<bool>(Image));
  const ElfSection *Text = Image->sectionByName(".text");
  ASSERT_FALSE(static_cast<bool>(Image->zeroRange(*Text, 0x1020, 32)));
  Bytes Contents = Image->sectionContents(*Text);
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(Contents[I], 0x90) << "prefix must be untouched";
  for (int I = 32; I < 64; ++I)
    EXPECT_EQ(Contents[I], 0) << "fn_b must be zeroed";
}

TEST(ElfImageTest, ZeroRangeOutsideSectionFails) {
  Expected<Bytes> File = buildSample();
  ASSERT_TRUE(static_cast<bool>(File));
  Expected<ElfImage> Image = ElfImage::parse(*File);
  ASSERT_TRUE(static_cast<bool>(Image));
  const ElfSection *Text = Image->sectionByName(".text");
  EXPECT_TRUE(static_cast<bool>(Image->zeroRange(*Text, 0x1030, 64)));
  EXPECT_TRUE(static_cast<bool>(Image->zeroRange(*Text, 0x900, 8)));
}

TEST(ElfImageTest, OrSegmentFlagsPersistsThroughReparse) {
  Expected<Bytes> File = buildSample();
  ASSERT_TRUE(static_cast<bool>(File));
  Expected<ElfImage> Image = ElfImage::parse(*File);
  ASSERT_TRUE(static_cast<bool>(Image));
  ASSERT_FALSE(static_cast<bool>(Image->orSegmentFlags(0, PF_W)));
  // Reparse the edited bytes: the flag must be in the file itself.
  Expected<ElfImage> Again = ElfImage::parse(Image->fileBytes());
  ASSERT_TRUE(static_cast<bool>(Again));
  EXPECT_EQ(Again->segments()[0].Flags, uint32_t{PF_R | PF_W | PF_X});
}

TEST(ElfImageTest, WriteRangeRoundTrip) {
  Expected<Bytes> File = buildSample();
  ASSERT_TRUE(static_cast<bool>(File));
  Expected<ElfImage> Image = ElfImage::parse(*File);
  ASSERT_TRUE(static_cast<bool>(Image));
  const ElfSection *Data = Image->sectionByName(".data");
  Bytes New = {9, 8, 7, 6};
  ASSERT_FALSE(static_cast<bool>(Image->writeRange(*Data, 0x2000, New)));
  EXPECT_EQ(Image->sectionContents(*Data), New);
}

TEST(ElfImageTest, FileOffsetOfComputesSectionRelative) {
  Expected<Bytes> File = buildSample();
  ASSERT_TRUE(static_cast<bool>(File));
  Expected<ElfImage> Image = ElfImage::parse(*File);
  ASSERT_TRUE(static_cast<bool>(Image));
  const ElfSection *Text = Image->sectionByName(".text");
  Expected<uint64_t> Off = Image->fileOffsetOf(*Text, 0x1010, 8);
  ASSERT_TRUE(static_cast<bool>(Off));
  EXPECT_EQ(*Off, Text->Offset + 0x10);
}

} // namespace
