//===- analysis/PreRestoreCheck.cpp - AUD4xx/AUD6xx pre-restore walk -------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pre-restore walk. Elision is safe only if no path the host can
/// start before `elide_restore` completes runs into the zeroed text: a
/// zeroed slot decodes to `Illegal` and traps the enclave before it can
/// be provisioned. One CFG over the shipped text (`analysis/Cfg`) is
/// walked once from every pre-restore root, and two families read the
/// walk.
///
/// Reachability pins the offending edges:
///
///   AUD401  the restore entry itself is missing or unbound;
///   AUD402  a pre-restore edge enters an elided region (the message
///           quotes the slot it leaves from; once per edge);
///   AUD403  an indirect `callr` on a pre-restore path (its target is not
///           statically checkable -- flagged, not proven);
///   AUD404  an ecall bridge begins with a zeroed slot;
///   AUD405  a pre-restore edge leaves the text section (once per edge).
///
/// Orderliness is the static twin of the runtime lifecycle contract
/// (`LifecycleErrc`, the `Supervisor`), judged entry by entry:
///
///   AUD601  the entry admits a path into redacted text without passing
///           through the restore call (one verdict per entry, anchored at
///           the entry -- the static NotRestored hazard);
///   AUD602  an ocall is reachable pre-restore outside the restore
///           exchange: the host could re-enter against unrestored text;
///   AUD603  a bridge thunk is not the `call f; halt` the loader binds;
///   AUD604  the restore entry is reachable from its own body (static
///           AlreadyLoaded hazard);
///   AUD605  the restore function has no path to `ret`/`halt` inside
///           surviving text (static TerminalRestore hazard).
///
/// The roots are the bridges whose export is the restore entry or
/// whitelisted, then the restore body, in symbol order. Bridges to other
/// exports are not walked: the runtime refuses them before restoration,
/// and entering elided code afterwards is their purpose. A path ends at a
/// `call` into the restore bridge or body (everything past it runs
/// against restored text), at a no-return terminator, and at the first
/// elided slot, where the shipped image traps.
///
//===----------------------------------------------------------------------===//

#include "analysis/Audit.h"
#include "analysis/Cfg.h"
#include "support/Hex.h"
#include "vm/Disassembler.h"

#include <deque>
#include <utility>

namespace elide {
namespace analysis {

namespace {

/// Admits the first few findings of one code; a hostile image can reach
/// thousands of edges.
struct Cap {
  size_t Seen = 0;
  bool admit() { return Seen++ < 8; }
};

struct Root {
  uint64_t Addr;
  std::string Name;
  bool IsRestore; ///< Restore bridge or body: its ocalls are the exchange.
  bool IsBody;    ///< Restore body: an edge back into restore is AUD604.
};

/// AUD401: the manifest must export the restore entry and its bridge must
/// exist, or the host can never trigger restoration.
void checkRestoreEntry(const AuditInput &Input, bool HaveBridge,
                       DiagnosticEngine &Engine) {
  std::vector<std::string> Manifest =
      parseEcallManifest(*Input.Image, Input.EcallManifestSection);
  const std::string BridgeName = Input.BridgePrefix + Input.RestoreSymbol;
  bool Exported = false;
  for (const std::string &Name : Manifest)
    Exported |= Name == Input.RestoreSymbol;
  if (Manifest.empty())
    Engine.report(AudRestoreEntryMissing, Severity::Warning,
                  "no ecall manifest ('" + Input.EcallManifestSection +
                      "'); the restore entry cannot be verified",
                  Input.EcallManifestSection, 0, 0);
  else if (!Exported)
    Engine.report(AudRestoreEntryMissing, Severity::Error,
                  "ecall manifest does not export '" + Input.RestoreSymbol +
                      "'; the host can never trigger restoration",
                  Input.EcallManifestSection, 0, 0);
  else if (!HaveBridge)
    Engine.report(AudRestoreEntryMissing, Severity::Error,
                  "manifest exports '" + Input.RestoreSymbol +
                      "' but the bridge symbol '" + BridgeName +
                      "' is absent; the loader cannot bind the restore "
                      "ecall",
                  Input.EcallManifestSection, 0, 0, BridgeName);
}

} // namespace

void checkPreRestore(const AuditInput &Input, const AuditOptions &Options,
                     DiagnosticEngine &Engine) {
  const bool Reach = Options.Checks & CheckReachability;
  const bool Order = Options.Checks & CheckOrderliness;
  const ElfImage &Image = *Input.Image;
  const ElfSymbol *RestoreFn = Image.symbolByName(Input.RestoreSymbol);
  const ElfSymbol *RestoreBridge =
      Image.symbolByName(Input.BridgePrefix + Input.RestoreSymbol);
  if (Reach)
    checkRestoreEntry(Input, RestoreBridge != nullptr, Engine);

  const ElfSection *Text = Image.sectionByName(Input.TextSection);
  if (!Text)
    return;
  const Bytes Code = Image.sectionContents(*Text);
  const uint64_t Base = Text->Addr;
  if (Code.size() > UINT64_MAX - Base)
    return; // Its end does not fit in 64 bits: no slot is text (as in Cfg).
  const std::string &Sec = Input.TextSection;
  const std::vector<ElidedRegion> Regions =
      effectiveElidedRegions(Input, nullptr);

  // A whole slot at a symbol's address, aligned or not. Offsets, not
  // `Pc + 8`: an address near 2^64 must not wrap into range.
  auto inText = [&](uint64_t Pc) {
    return Pc >= Base && Code.size() >= SvmInstrSize &&
           Pc - Base <= Code.size() - SvmInstrSize;
  };
  auto elidedAt = [&](uint64_t Pc) -> const ElidedRegion * {
    for (const ElidedRegion &R : Regions)
      if (Pc - Base >= R.Offset && Pc - Base < R.Offset + R.Length)
        return &R;
    return nullptr;
  };
  // Where a path through \p B traps: its first elided slot and region,
  // else {B.End, nullptr}.
  auto trapIn = [&](const CfgBlock &B)
      -> std::pair<uint64_t, const ElidedRegion *> {
    for (uint64_t Pc = B.Start; Pc < B.End; Pc += SvmInstrSize)
      if (const ElidedRegion *E = elidedAt(Pc))
        return {Pc, E};
    return {B.End, nullptr};
  };

  std::vector<const ElfSymbol *> Bridges;
  std::vector<Root> Roots;
  std::vector<uint64_t> RootAddrs;
  for (const ElfSymbol &Sym : Image.symbols()) {
    if (!Sym.Name.starts_with(Input.BridgePrefix) || !inText(Sym.Value))
      continue;
    Bridges.push_back(&Sym);
    std::string Export = Sym.Name.substr(Input.BridgePrefix.size());
    bool IsRestore = Export == Input.RestoreSymbol;
    if (IsRestore ||
        (Input.HaveWhitelist && Input.WhitelistNames.count(Export)))
      Roots.push_back({Sym.Value, Sym.Name, IsRestore, false});
  }
  if (RestoreFn && inText(RestoreFn->Value))
    Roots.push_back({RestoreFn->Value, Input.RestoreSymbol, true, true});
  for (const Root &R : Roots)
    RootAddrs.push_back(R.Addr);
  const Cfg G = Cfg::build(Code, Base, RootAddrs);

  // --- One loop over bridges: AUD404 (zeroed first slot) and AUD603 (not
  // `call f; halt`; a zeroed bridge is AUD404's finding only). ---
  for (const ElfSymbol *Sym : Bridges) {
    Instruction First = G.instrAt(Sym->Value);
    uint64_t Second = Sym->Value + SvmInstrSize;
    if (First.Op == Opcode::Illegal) {
      if (Reach)
        Engine.report(AudBridgeElided, Severity::Error,
                      "ecall bridge '" + Sym->Name +
                          "' begins with an illegal (zeroed) instruction; "
                          "the sanitizer elided a bridge",
                      Sec, Sym->Value - Base, SvmInstrSize, Sym->Name);
    } else if (Order && G.contains(Sym->Value) &&
               (First.Op != Opcode::Call || !G.contains(Second) ||
                G.instrAt(Second).Op != Opcode::Halt)) {
      Engine.report(AudBridgeContract, Severity::Error,
                    "bridge '" + Sym->Name +
                        "' is not the `call f; halt` thunk the loader "
                        "binds against",
                    Sec, Sym->Value - Base, 2 * SvmInstrSize, Sym->Name);
    }
  }

  auto intoRestore = [&](uint64_t Target) {
    return (RestoreFn && Target == RestoreFn->Value) ||
           (RestoreBridge && Target == RestoreBridge->Value);
  };

  // --- The walk: each root once, breadth-first over blocks. An edge
  // (source slot, target) is reported for the first root that reaches it;
  // a root's entry has no source. ---
  std::set<std::pair<uint64_t, uint64_t>> ReportedEdges;
  std::set<uint64_t> ReportedCallR;
  Cap Elided, Escapes, Indirect, Ocalls, Reentries;
  for (const Root &R : Roots) {
    auto describe = [&](std::optional<uint64_t> From) {
      std::string Out = "path from '" + R.Name + "'";
      if (From)
        Out += " via `" + disassembleInstruction(G.instrAt(*From), *From) + "`";
      return Out;
    };
    auto firstOnEdge = [&](std::optional<uint64_t> From, uint64_t To) {
      return !From || ReportedEdges.insert({*From, To}).second;
    };
    auto escape = [&](std::optional<uint64_t> From, uint64_t To) {
      if (Reach && firstOnEdge(From, To) && Escapes.admit())
        Engine.report(AudFlowEscapesText, Severity::Error,
                      describe(From) + " leaves the text section (target " +
                          hexAddress(To) + ")",
                      Sec, From ? *From - Base : 0, SvmInstrSize, R.Name);
    };
    const ElidedRegion *Redacted = nullptr;
    uint64_t RedactedPc = 0;
    auto trap = [&](std::optional<uint64_t> From, uint64_t Pc,
                    const ElidedRegion &E) {
      if (!Redacted) {
        Redacted = &E;
        RedactedPc = Pc;
      }
      if (Reach && firstOnEdge(From, Pc) && Elided.admit())
        Engine.report(AudPreRestoreReachesElided, Severity::Error,
                      "pre-restore " + describe(From) +
                          " reaches elided region" +
                          (E.Name.empty() ? std::string()
                                          : " of '" + E.Name + "'") +
                          " before restoration; the enclave traps on a "
                          "zeroed slot",
                      Sec, Pc - Base, SvmInstrSize,
                      E.Name.empty() ? R.Name : E.Name);
    };

    int Entry = G.blockStartingAt(R.Addr);
    if (Entry < 0) { // In text, but not on a slot boundary.
      escape(std::nullopt, R.Addr);
      continue;
    }
    std::vector<uint8_t> Visited(G.blocks().size(), 0);
    std::deque<std::pair<uint32_t, std::optional<uint64_t>>> Queue{
        {(uint32_t)Entry, std::nullopt}};
    while (!Queue.empty()) {
      auto [BI, From] = Queue.front();
      Queue.pop_front();
      const CfgBlock &B = G.blocks()[BI];
      if (const ElidedRegion *E = elidedAt(B.Start)) {
        trap(From, B.Start, *E); // Every edge into it counts, visited or not.
        continue;
      }
      if (Visited[BI])
        continue;
      Visited[BI] = 1;
      auto [Stop, E] = trapIn(B);
      for (uint64_t Pc = B.Start; Pc < Stop; Pc += SvmInstrSize)
        if (Order && !R.IsRestore && G.instrAt(Pc).Op == Opcode::Ocall &&
            Ocalls.admit())
          Engine.report(AudPreRestoreOcall, Severity::Warning,
                        "ocall reachable pre-restore from entry '" + R.Name +
                            "' outside the restore exchange; host re-entry "
                            "during it would face unrestored text",
                        Sec, Pc - Base, SvmInstrSize, R.Name);
      if (E) {
        trap(Stop - SvmInstrSize, Stop, *E);
        continue;
      }

      Instruction Term = G.instrAt(B.TermPc);
      std::optional<uint64_t> TermFrom =
          B.TermPc == B.Start ? From : B.TermPc - SvmInstrSize;
      if (Reach && Term.Op == Opcode::CallR &&
          ReportedCallR.insert(B.TermPc).second && Indirect.admit())
        Engine.report(AudIndirectPreRestore, Severity::Warning,
                      "indirect call on pre-restore " + describe(TermFrom) +
                          "; its target cannot be statically shown to "
                          "avoid elided code",
                      Sec, B.TermPc - Base, SvmInstrSize, R.Name);
      std::optional<uint64_t> Target = directTarget(Term, B.TermPc);
      if (Target && intoRestore(*Target)) {
        if (Order && R.IsBody && Reentries.admit())
          Engine.report(AudRestoreReentry, Severity::Error,
                        "restore entry is reachable from its own body "
                        "(static AlreadyLoaded hazard) via `" +
                            disassembleInstruction(Term, B.TermPc) + "`",
                        Sec, B.TermPc - Base, SvmInstrSize, R.Name);
        if (Term.Op == Opcode::Call)
          continue; // Restored past this call.
      }
      for (uint32_t Succ : B.Succs)
        Queue.push_back({Succ, B.TermPc});
      for (uint64_t Out : B.EscapeTargets)
        escape(B.TermPc, Out);
    }

    if (Order && Redacted)
      Engine.report(
          AudPreRestoreEntersRedacted, Severity::Error,
          "entry '" + R.Name +
              "' admits a pre-restore path into redacted text" +
              (Redacted->Name.empty() ? std::string()
                                      : " of '" + Redacted->Name + "'") +
              " (first at .text+" + hexAddress(RedactedPc - Base) +
              ") without passing through '" + Input.RestoreSymbol + "'",
          Sec, R.Addr - Base, SvmInstrSize, R.Name);
  }

  // --- AUD605: the restore function must be able to finish. The walk is
  // intra-procedural: a call steps over to its fall-through edge (the
  // callee is assumed to return). Success is any path to `ret`/`halt`
  // through surviving text. ---
  if (!Order || !RestoreFn || !G.contains(RestoreFn->Value))
    return;
  std::vector<uint8_t> Seen(G.blocks().size(), 0);
  std::deque<int> Queue{G.blockStartingAt(RestoreFn->Value)};
  while (!Queue.empty()) {
    int BI = Queue.front();
    Queue.pop_front();
    if (BI < 0 || Seen[BI])
      continue;
    Seen[BI] = 1;
    const CfgBlock &B = G.blocks()[BI];
    if (trapIn(B).second)
      continue;
    if (B.Term == Opcode::Ret || B.Term == Opcode::Halt)
      return;
    if (B.TargetPc && B.Term != Opcode::Call)
      Queue.push_back(G.blockStartingAt(*B.TargetPc));
    if (B.FallPc)
      Queue.push_back(G.blockStartingAt(*B.FallPc));
  }
  Engine.report(AudRestoreIncompletable, Severity::Error,
                "restore function '" + Input.RestoreSymbol +
                    "' has no path to ret/halt inside surviving text "
                    "(static TerminalRestore hazard)",
                Sec, RestoreFn->Value - Base, SvmInstrSize,
                Input.RestoreSymbol);
}

} // namespace analysis
} // namespace elide
