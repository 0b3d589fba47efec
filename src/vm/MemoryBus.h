//===- vm/MemoryBus.h - VM memory interface ---------------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter accesses memory exclusively through this interface, so
/// the SGX device model can interpose per-page permission checks (read /
/// write / execute) on every access -- the property that makes the paper's
/// PF_W trick observable: a store into a text page succeeds only when the
/// sanitizer marked the segment writable.
///
/// An implementation may also register a page table of host pointers and
/// permission bits. `direct` reads it inline, with no virtual call: it
/// hands out a host pointer only for an access that lies inside one page
/// whose permissions include the one needed, so the permission check still
/// runs on every access. Everything else -- page-straddling accesses,
/// unmapped pages, permission faults -- takes the virtual path, which owns
/// every fault and its message.
///
/// The bus additionally keeps a bounded journal of recent write ranges.
/// Execution backends that cache pre-decoded code (vm/ThreadedBackend)
/// key their invalidation off this journal: a restore write into `.text`
/// -- the paper's entire point -- must flush any stale decoded form of
/// the zeroed bytes it replaces. A store made through a `direct` pointer
/// journals itself with `noteWrite`, exactly as `write` does. The journal
/// is conservative: when more writes happened than it can hold,
/// `forEachWriteSince` reports that the history was truncated and the
/// caller must assume everything changed.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_VM_MEMORYBUS_H
#define SGXELIDE_VM_MEMORYBUS_H

#include "support/Bytes.h"
#include "support/Error.h"

namespace elide {

/// One entry of a bus's inline page table: the host bytes of a page and
/// its permission bits. An entry with no permissions is never handed out,
/// so a page that is not resident keeps `Perms` at 0.
struct DirectPage {
  /// Permission bits: the ELF PF_* values, which sgx::PagePerm shares.
  static constexpr uint8_t Exec = 1, Write = 2, Read = 4;
  uint8_t *Data = nullptr;
  uint8_t Perms = 0;
};

/// Abstract byte-addressed memory with execute permission tracking.
class MemoryBus {
public:
  /// The granularity of the inline page table (the EPC page size).
  static constexpr uint64_t DirectPageSize = 0x1000;

  MemoryBus() = default;
  // The registered page table points into the implementation's storage.
  MemoryBus(const MemoryBus &) = delete;
  MemoryBus &operator=(const MemoryBus &) = delete;
  virtual ~MemoryBus();

  /// Reads Out.size() bytes at \p Addr (data read permission).
  virtual Error read(uint64_t Addr, MutableBytesView Out) = 0;

  /// Writes Data at \p Addr (data write permission).
  virtual Error write(uint64_t Addr, BytesView Data) = 0;

  /// Reads 8 instruction bytes at \p Addr (execute permission).
  virtual Error fetch(uint64_t Addr, uint8_t Out[8]) = 0;

  /// The host bytes of an access of \p Size bytes at \p Addr, or null.
  /// Non-null only when the access lies inside one registered page whose
  /// permissions include all of \p Need (DirectPage bits); on null the
  /// caller takes the virtual `read`/`write`. A store through the pointer
  /// must be followed by `noteWrite(Addr, Size)`.
  uint8_t *direct(uint64_t Addr, uint64_t Size, uint8_t Need) const {
    uint64_t Index = Addr / DirectPageSize;
    uint64_t Offset = Addr % DirectPageSize;
    if (Index >= DirectCount || Size > DirectPageSize - Offset)
      return nullptr;
    const DirectPage &P = DirectPages[Index];
    if ((P.Perms & Need) != Need)
      return nullptr;
    return P.Data + Offset;
  }

  //===--------------------------------------------------------------------===//
  // Write observation (decoded-code cache invalidation)
  //===--------------------------------------------------------------------===//

  /// Monotonic counter: bumped once per recorded write (or global change).
  uint64_t writeEpoch() const { return Epoch; }

  /// Visits every write range recorded after epoch \p Since, oldest first.
  /// Returns false when ranges after \p Since have already been dropped
  /// from the bounded journal -- the caller must then treat the entire
  /// address space as potentially written. \p Fn receives [Lo, Hi).
  template <typename FnT> bool forEachWriteSince(uint64_t Since, FnT Fn) const {
    if (Epoch <= Since)
      return true;
    if (Epoch - Since > WriteJournalSize)
      return false; // History truncated; caller must assume the worst.
    for (uint64_t E = Since + 1; E <= Epoch; ++E) {
      const WriteRange &R = Journal[(E - 1) % WriteJournalSize];
      Fn(R.Lo, R.Hi);
    }
    return true;
  }

  /// Records a successful write of \p Size bytes at \p Addr. Implementations
  /// call this from `write`; external mutators of the backing store (page
  /// reloads, permission changes) use `noteGlobalChange` instead.
  void noteWrite(uint64_t Addr, uint64_t Size) {
    if (Size == 0)
      return;
    WriteRange &R = Journal[Epoch % WriteJournalSize];
    R.Lo = Addr;
    // Saturate instead of wrapping: a range that wraps the address space
    // must invalidate everything above Lo.
    R.Hi = (Addr + Size < Addr) ? ~0ull : Addr + Size;
    ++Epoch;
  }

  /// Records a change that no byte range describes: page permissions,
  /// eviction/reload, or any out-of-band mutation of the backing store.
  /// Equivalent to a write covering the whole address space.
  void noteGlobalChange() {
    WriteRange &R = Journal[Epoch % WriteJournalSize];
    R.Lo = 0;
    R.Hi = ~0ull;
    ++Epoch;
  }

protected:
  /// Registers the page table `direct` reads: entry i covers
  /// [i * DirectPageSize, (i + 1) * DirectPageSize). The implementation
  /// owns the table and keeps it registered for as long as it lives; it
  /// clears an entry before freeing the bytes the entry points at.
  void setDirectPages(const DirectPage *Pages, uint64_t Count) {
    DirectPages = Pages;
    DirectCount = Count;
  }

private:
  struct WriteRange {
    uint64_t Lo = 0;
    uint64_t Hi = 0;
  };
  /// Sized so one restore pass (a handful of region writes per secret
  /// function) fits without truncating; overflow is safe, just slower.
  static constexpr uint64_t WriteJournalSize = 64;
  WriteRange Journal[WriteJournalSize];
  uint64_t Epoch = 0;
  const DirectPage *DirectPages = nullptr;
  uint64_t DirectCount = 0;
};

/// A flat RAM bus with uniform RWX permissions, for unit tests and tools.
/// Its whole pages are registered RWX for `direct`; a partial tail page
/// stays on the virtual path, which owns the out-of-bounds fault.
class FlatMemory : public MemoryBus {
public:
  explicit FlatMemory(size_t Size);

  Error read(uint64_t Addr, MutableBytesView Out) override;
  Error write(uint64_t Addr, BytesView Data) override;
  Error fetch(uint64_t Addr, uint8_t Out[8]) override;

  /// Direct backing-store access for test setup. Bypasses the write
  /// journal: mutate through `write` (or call `noteGlobalChange`) when a
  /// cached-decode backend may already have observed the old bytes.
  MutableBytesView raw() { return Ram; }

private:
  Error checkRange(uint64_t Addr, uint64_t Size) const;
  Bytes Ram;
  std::vector<DirectPage> Pages;
};

} // namespace elide

#endif // SGXELIDE_VM_MEMORYBUS_H
