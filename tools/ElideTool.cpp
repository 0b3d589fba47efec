//===- tools/ElideTool.cpp - The sgxelide command-line tool --------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line face of the framework, mirroring the paper artifact's
/// workflow (Makefile sanitizer step, server.py, ./app):
///
///   sgxelide compile   out.so src.elc...       # gcc+ld stand-in
///   sgxelide whitelist  dummy.so               # sec. 4.1
///   sgxelide sanitize  in.so out.so data meta  # sec. 4.2 (+ --local)
///   sgxelide measure   enclave.so              # sgx_sign gendata
///   sgxelide sign      enclave.so sig.bin      # sgx_sign (toy vendor key)
///   sgxelide objdump   enclave.so              # the attacker's view
///   sgxelide serve     meta data mrenclave     # server.py
///   sgxelide run       enclave.so sig.bin ...  # ./app
///
/// Keys are derived from --seed flags: this is a reproduction harness, not
/// a production signer.
///
//===----------------------------------------------------------------------===//

#include "analysis/Audit.h"
#include "elide/HostRuntime.h"
#include "elide/Pipeline.h"
#include "elide/Supervisor.h"
#include "elide/TrustedLib.h"
#include "elf/ElfImage.h"
#include "server/AuthServer.h"
#include "server/Reactor.h"
#include "server/Transport.h"
#include "sgx/EnclaveLoader.h"
#include "support/File.h"
#include "support/Hex.h"
#include "support/Stats.h"
#include "vm/Disassembler.h"
#include "vm/ExecBackend.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace elide;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: sgxelide <command> [args]\n"
      "  compile   <out.so> <src.elc>...        compile + link with the "
      "SgxElide runtime\n"
      "  whitelist <dummy.so|-> [out.txt]       derive the function "
      "whitelist ('-' = builtin dummy)\n"
      "  sanitize  <in.so> <out.so> <data> <meta> [--local] [--whitelist f]\n"
      "            [--no-audit] [--audit-flow] [--sgx2]\n"
      "  audit     <sanitized.so> [--meta f] [--whitelist f] [--data f]\n"
      "            [--json] [--baseline f] [--write-baseline f] [--sgx2]\n"
      "            [--taint] [--ct] [--orderliness]\n"
      "  measure   <enclave.so>                 print MRENCLAVE\n"
      "  sign      <enclave.so> <sig.bin> [--seed N] [--sgx2]\n"
      "  objdump   <enclave.so> [function]      disassemble (attacker's "
      "view)\n"
      "  serve     <meta> <data|-> <mrenclave-hex> [--port-file f] "
      "[--authority-seed N]\n"
      "            [--threads N] [--io-timeout-ms N] [--max-connections N]\n"
      "            [--overload-threshold N] [--retry-after-ms N] "
      "[--session-budget N]\n"
      "  run       <enclave.so> <sig.bin> <port> <ecall> <hex-input> "
      "[--data f] [--authority-seed N] [--device-seed N]\n"
      "            [--connect-timeout-ms N] [--io-timeout-ms N] "
      "[--retries N] [--retry-backoff-ms N]\n"
      "            [--endpoint host:port]... [--breaker-failures N] "
      "[--breaker-cooldown-ms N]\n"
      "            [--sealed-cache f] [--trace-provision]\n"
      "            [--deadline-ms N] [--criticality "
      "critical|default|sheddable] [--retry-budget N]\n"
      "            [--svm-backend switch|threaded] [--supervise] "
      "[--max-crash-loops N] [--recovery-backoff-ms N]\n"
      "\n"
      "audit exit codes:\n"
      "   0  clean (no non-baselined diagnostics)\n"
      "   1  host-side error (unreadable/unparseable input)\n"
      "   2  usage error\n"
      "   3  error-severity diagnostics present\n"
      "   4  warning-severity diagnostics only\n"
      "\n"
      "run exit codes (distinct per restore outcome):\n"
      "   0  restored and ecall succeeded\n"
      "   1  host-side error (bad file, trapped ecall, ...)\n"
      "   2  usage error\n"
      "  10  no-secrets: every secret source failed (terminal)\n"
      "  11  short-secrets: exchange returned wrong byte count (transient)\n"
      "  12  quote-failed: quoting enclave unavailable (transient)\n"
      "  13  server-unreachable: endpoints down, no usable cache "
      "(transient)\n"
      "  14  attestation-rejected: server refused this enclave (terminal)\n"
      "  15  meta-fetch-failed: metadata exchange failed (transient)\n"
      "  16  meta-parse-failed: metadata corrupt (terminal)\n"
      "  17  unknown nonzero restore status\n"
      "  18  overloaded: every endpoint shed load (honor retry-after)\n"
      "  19  breaker-open: all endpoint breakers open (retry later)\n"
      "  20  data-fetch-failed: secret data exchange failed (transient)\n"
      "  21  deadline/retry-budget exhausted: the restore ran out of time\n"
      "      or tokens, in whichever exchange and whatever its status\n"
      "      (raise --deadline-ms, or offered load is too high)\n"
      "  30  ecall faulted: VM trap or instruction-budget runaway (with\n"
      "      --supervise the enclave is quarantined; retry later)\n"
      "  31  enclave retired: crash-loop breaker tripped or recovery\n"
      "      restore ended terminally (--supervise only)\n");
  return 2;
}

/// Maps the restore outcome onto the exit-code table printed by usage().
/// \p Exhaustion is the verdict the run's provision-event observer kept
/// (None when neither the chain nor the restore loop gave up). A deadline
/// or budget verdict ended the restore whichever exchange it cut; the
/// chain's verdicts split the server-unreachable case into its
/// backpressure and breaker flavors.
int exitCodeForRestore(uint64_t Status, TransportErrc Exhaustion) {
  if (Status != RestoreOk && (Exhaustion == TransportErrc::DeadlineExceeded ||
                              Exhaustion == TransportErrc::RetryBudgetExhausted))
    return 21;
  switch (Status) {
  case RestoreOk:
    return 0;
  case RestoreNoSecrets:
    return 10;
  case RestoreShortSecrets:
    return 11;
  case RestoreQuoteFailed:
    return 12;
  case RestoreServerUnreachable:
    if (Exhaustion == TransportErrc::Overloaded)
      return 18;
    if (Exhaustion == TransportErrc::BreakerOpen)
      return 19;
    return 13;
  case RestoreRejected:
    return 14;
  case RestoreMetaFetchFailed:
    return 15;
  case RestoreMetaParseFailed:
    return 16;
  case RestoreDataFetchFailed:
    return 20;
  default:
    return 17;
  }
}

bool hasFlag(std::vector<std::string> &Args, const std::string &Flag) {
  for (auto It = Args.begin(); It != Args.end(); ++It)
    if (*It == Flag) {
      Args.erase(It);
      return true;
    }
  return false;
}

std::string flagValue(std::vector<std::string> &Args, const std::string &Flag,
                      const std::string &Default) {
  for (auto It = Args.begin(); It != Args.end(); ++It)
    if (*It == Flag && It + 1 != Args.end()) {
      std::string V = *(It + 1);
      Args.erase(It, It + 2);
      return V;
    }
  return Default;
}

/// Collects every occurrence of a repeatable flag, in order.
std::vector<std::string> flagValues(std::vector<std::string> &Args,
                                    const std::string &Flag) {
  std::vector<std::string> Values;
  for (auto It = Args.begin(); It != Args.end();)
    if (*It == Flag && It + 1 != Args.end()) {
      Values.push_back(*(It + 1));
      It = Args.erase(It, It + 2);
    } else {
      ++It;
    }
  return Values;
}

int fail(const std::string &Message) {
  std::fprintf(stderr, "sgxelide: error: %s\n", Message.c_str());
  return 1;
}

Ed25519KeyPair keyFromSeed(uint64_t Seed) {
  Drbg Rng(Seed);
  Ed25519Seed S{};
  Rng.fill(MutableBytesView(S.data(), 32));
  return ed25519KeyPairFromSeed(S);
}

int cmdCompile(std::vector<std::string> Args) {
  if (Args.size() < 2)
    return usage();
  std::string OutPath = Args[0];
  std::vector<elc::SourceFile> Sources = ElideTrustedLib::runtimeSources();
  for (size_t I = 1; I < Args.size(); ++I) {
    Expected<Bytes> Src = readFileBytes(Args[I]);
    if (!Src)
      return fail(Src.errorMessage());
    Sources.push_back({Args[I], stringOfBytes(*Src)});
  }
  Expected<elc::CompileResult> R =
      elc::compileEnclave(Sources, ElideTrustedLib::callRegistry());
  if (!R)
    return fail(R.errorMessage());
  if (Error E = writeFileBytes(OutPath, R->ElfFile))
    return fail(E.message());
  std::printf("%s: %zu functions, %zu text bytes, exports:", OutPath.c_str(),
              R->FunctionNames.size(), R->TextBytes);
  for (const std::string &Name : R->ExportNames)
    std::printf(" %s", Name.c_str());
  std::printf("\n");
  return 0;
}

int cmdWhitelist(std::vector<std::string> Args) {
  if (Args.empty())
    return usage();
  // "-" derives the whitelist from a freshly compiled builtin dummy
  // enclave (runtime sources only) instead of a dummy.so on disk.
  Bytes DummyElf;
  if (Args[0] == "-") {
    Expected<elc::CompileResult> Dummy = elc::compileEnclave(
        ElideTrustedLib::runtimeSources(), ElideTrustedLib::callRegistry());
    if (!Dummy)
      return fail(Dummy.errorMessage());
    DummyElf = std::move(Dummy->ElfFile);
  } else {
    Expected<Bytes> FromDisk = readFileBytes(Args[0]);
    if (!FromDisk)
      return fail(FromDisk.errorMessage());
    DummyElf = FromDisk.takeValue();
  }
  Expected<Whitelist> W = Whitelist::fromDummyEnclave(DummyElf);
  if (!W)
    return fail(W.errorMessage());
  std::string Text = W->serialize();
  if (Args.size() > 1) {
    if (Error E = writeFileBytes(Args[1], viewOf(Text)))
      return fail(E.message());
    std::printf("wrote %zu whitelist entries to %s\n", W->size(),
                Args[1].c_str());
  } else {
    std::fputs(Text.c_str(), stdout);
  }
  return 0;
}

/// Renders an audit report and maps it onto the audit exit-code table
/// (0 clean / 3 errors / 4 warnings only).
int reportAuditAndExit(const analysis::AuditReport &Report, bool Json) {
  if (Json)
    std::printf("%s\n", Report.renderJson().c_str());
  else
    std::fputs(Report.renderText().c_str(), stdout);
  if (Report.Errors > 0)
    return 3;
  if (Report.Warnings > 0)
    return 4;
  return 0;
}

int cmdAudit(std::vector<std::string> Args) {
  bool Json = hasFlag(Args, "--json");
  bool Sgx2 = hasFlag(Args, "--sgx2");
  bool Taint = hasFlag(Args, "--taint");
  bool Ct = hasFlag(Args, "--ct");
  bool Orderliness = hasFlag(Args, "--orderliness");
  std::string MetaPath = flagValue(Args, "--meta", "");
  std::string WhitelistPath = flagValue(Args, "--whitelist", "");
  std::string DataPath = flagValue(Args, "--data", "");
  std::string BaselinePath = flagValue(Args, "--baseline", "");
  std::string WriteBaselinePath = flagValue(Args, "--write-baseline", "");
  if (Args.size() != 1)
    return usage();

  Expected<Bytes> In = readFileBytes(Args[0]);
  if (!In)
    return fail(In.errorMessage());
  Expected<ElfImage> Image = ElfImage::parse(*In);
  if (!Image)
    return fail(Image.errorMessage());

  analysis::AuditInput Input;
  Input.Image = &*Image;

  if (!WhitelistPath.empty()) {
    Expected<Bytes> Text = readFileBytes(WhitelistPath);
    if (!Text)
      return fail(Text.errorMessage());
    Expected<Whitelist> W = Whitelist::deserialize(stringOfBytes(*Text));
    if (!W)
      return fail(W.errorMessage());
    Input.WhitelistNames = W->names();
    Input.HaveWhitelist = true;
  }

  std::optional<SecretMeta> Meta;
  if (!MetaPath.empty()) {
    Expected<Bytes> MetaBytes = readFileBytes(MetaPath);
    if (!MetaBytes)
      return fail(MetaBytes.errorMessage());
    Expected<SecretMeta> M = SecretMeta::deserialize(*MetaBytes);
    if (!M)
      return fail(M.errorMessage());
    Meta = *M;
    analysis::AuditMeta AM;
    AM.DataLength = M->DataLength;
    AM.RestoreOffset = M->RestoreOffset;
    AM.Encrypted = M->Encrypted;
    AM.KeyBytes.assign(M->Key.begin(), M->Key.end());
    AM.Serialized = M->serialize();
    Input.Meta = std::move(AM);
  }

  if (!DataPath.empty()) {
    Expected<Bytes> Data = readFileBytes(DataPath);
    if (!Data)
      return fail(Data.errorMessage());
    // The data file is the secret plaintext only in remote mode; local
    // mode ships ciphertext, which by construction never recurs in the
    // image and would only blunt the scan.
    if (!Meta || !Meta->Encrypted)
      Input.SecretPlaintext = Data.takeValue();
  }

  analysis::Baseline Suppressions;
  analysis::AuditOptions Options;
  if (!BaselinePath.empty()) {
    Expected<Bytes> Text = readFileBytes(BaselinePath);
    if (!Text)
      return fail(Text.errorMessage());
    Expected<analysis::Baseline> B =
        analysis::Baseline::parse(stringOfBytes(*Text));
    if (!B)
      return fail(B.errorMessage());
    Suppressions = *B;
    Options.Suppressions = &Suppressions;
  }
  Options.Mode = Sgx2 ? analysis::SgxMode::Sgx2 : analysis::SgxMode::Sgx1;
  // The flow families reason about the *restored* secret code and are
  // opt-in; orderliness is already part of the default set, the flag
  // just makes a CI invocation self-documenting.
  if (Taint)
    Options.Checks |= analysis::CheckTaintFlow;
  if (Ct)
    Options.Checks |= analysis::CheckConstantTime;
  if (Orderliness)
    Options.Checks |= analysis::CheckOrderliness;

  analysis::AuditReport Report = analysis::runAudit(Input, Options);
  if (!WriteBaselinePath.empty()) {
    if (Error E =
            writeFileBytes(WriteBaselinePath, viewOf(Report.renderBaseline())))
      return fail(E.message());
    std::fprintf(stderr, "wrote %zu suppression(s) to %s\n",
                 Report.Diags.size(), WriteBaselinePath.c_str());
  }
  return reportAuditAndExit(Report, Json);
}

int cmdSanitize(std::vector<std::string> Args) {
  bool Local = hasFlag(Args, "--local");
  bool NoAudit = hasFlag(Args, "--no-audit");
  bool Sgx2 = hasFlag(Args, "--sgx2");
  bool AuditFlow = hasFlag(Args, "--audit-flow");
  std::string WhitelistPath = flagValue(Args, "--whitelist", "");
  if (Args.size() != 4)
    return usage();

  Expected<Bytes> In = readFileBytes(Args[0]);
  if (!In)
    return fail(In.errorMessage());

  Whitelist Keep;
  if (!WhitelistPath.empty()) {
    Expected<Bytes> Text = readFileBytes(WhitelistPath);
    if (!Text)
      return fail(Text.errorMessage());
    Expected<Whitelist> W = Whitelist::deserialize(stringOfBytes(*Text));
    if (!W)
      return fail(W.errorMessage());
    Keep = W.takeValue();
  } else {
    // Derive from a freshly built dummy enclave (the default flow).
    Expected<elc::CompileResult> Dummy = elc::compileEnclave(
        ElideTrustedLib::runtimeSources(), ElideTrustedLib::callRegistry());
    if (!Dummy)
      return fail(Dummy.errorMessage());
    Expected<Whitelist> W = Whitelist::fromDummyEnclave(Dummy->ElfFile);
    if (!W)
      return fail(W.errorMessage());
    Keep = W.takeValue();
  }

  Drbg Rng = Drbg::system();
  Timer T;
  Expected<SanitizedEnclave> S = sanitizeEnclave(
      *In, Keep, Local ? SecretStorage::Local : SecretStorage::Remote, Rng);
  double Ms = T.elapsedMs();
  if (!S)
    return fail(S.errorMessage());

  if (Error E = writeFileBytes(Args[1], S->SanitizedElf))
    return fail(E.message());
  if (Error E = writeFileBytes(Args[2], S->SecretData))
    return fail(E.message());
  if (Error E = writeFileBytes(Args[3], S->Meta.serialize()))
    return fail(E.message());
  std::printf("sanitized %zu/%zu functions (%zu bytes, %zu symbols "
              "scrubbed) in %.3f ms [%s]\n",
              S->Report.SanitizedFunctions, S->Report.TotalFunctions,
              S->Report.SanitizedBytes, S->Report.ScrubbedSymbols, Ms,
              Local ? "local" : "remote");
  std::printf("NOTE: %s must stay on the authentication server only\n",
              Args[3].c_str());

  // Self-audit the output with the build-side facts (exact regions, the
  // whitelist, the metadata, and the plaintext) before declaring success.
  if (!NoAudit) {
    Expected<ElfImage> Image = ElfImage::parse(S->SanitizedElf);
    if (!Image)
      return fail(Image.errorMessage());
    Bytes Plaintext;
    if (Local) {
      Expected<ElfImage> Plain = ElfImage::parse(*In);
      if (!Plain)
        return fail(Plain.errorMessage());
      if (const ElfSection *Text = Plain->sectionByName(".text"))
        Plaintext = Plain->sectionContents(*Text);
    } else {
      Plaintext = S->SecretData;
    }
    analysis::AuditInput Input =
        auditInputFor(*Image, S->ElidedRegions, Keep, S->Meta, Plaintext);
    analysis::AuditOptions Options;
    Options.Mode = Sgx2 ? analysis::SgxMode::Sgx2 : analysis::SgxMode::Sgx1;
    if (AuditFlow)
      Options.Checks = analysis::CheckEverything;
    analysis::AuditReport Report = analysis::runAudit(Input, Options);
    if (!Report.clean())
      return reportAuditAndExit(Report, /*Json=*/false);
    std::printf("self-audit: clean\n");
  }
  return 0;
}

int cmdMeasure(std::vector<std::string> Args) {
  if (Args.empty())
    return usage();
  Expected<Bytes> In = readFileBytes(Args[0]);
  if (!In)
    return fail(In.errorMessage());
  Expected<sgx::Measurement> M =
      sgx::measureEnclaveImage(*In, sgx::EnclaveLayout{});
  if (!M)
    return fail(M.errorMessage());
  std::printf("%s\n", toHex(BytesView(M->data(), 32)).c_str());
  return 0;
}

int cmdSign(std::vector<std::string> Args) {
  uint64_t Seed = std::stoull(flagValue(Args, "--seed", "1"));
  bool Sgx2 = hasFlag(Args, "--sgx2");
  if (Args.size() != 2)
    return usage();
  Expected<Bytes> In = readFileBytes(Args[0]);
  if (!In)
    return fail(In.errorMessage());
  Expected<sgx::Measurement> M =
      sgx::measureEnclaveImage(*In, sgx::EnclaveLayout{});
  if (!M)
    return fail(M.errorMessage());
  uint64_t Attrs = sgx::AttrDebug;
  if (Sgx2)
    Attrs |= sgx::AttrSgx2DynamicPerms;
  sgx::SigStruct Sig = sgx::SigStruct::sign(keyFromSeed(Seed), *M, Attrs);
  if (Error E = writeFileBytes(Args[1], Sig.serialize()))
    return fail(E.message());
  std::printf("signed; MRENCLAVE=%s MRSIGNER=%s\n",
              toHex(BytesView(M->data(), 32)).c_str(),
              toHex(BytesView(Sig.mrSigner().data(), 32)).c_str());
  return 0;
}

int cmdObjdump(std::vector<std::string> Args) {
  if (Args.empty())
    return usage();
  Expected<Bytes> In = readFileBytes(Args[0]);
  if (!In)
    return fail(In.errorMessage());
  Expected<ElfImage> Image = ElfImage::parse(*In);
  if (!Image)
    return fail(Image.errorMessage());
  const ElfSection *Text = Image->sectionByName(".text");
  if (!Text)
    return fail("no .text section");
  Bytes Code = Image->sectionContents(*Text);

  for (const ElfSymbol &Sym : Image->symbols()) {
    if (!Sym.isFunction())
      continue;
    if (Args.size() > 1 && Sym.Name != Args[1])
      continue;
    std::printf("\n%016llx <%s>:  (%llu bytes)\n",
                static_cast<unsigned long long>(Sym.Value), Sym.Name.c_str(),
                static_cast<unsigned long long>(Sym.Size));
    size_t Off = Sym.Value - Text->Addr;
    BytesView Body(Code.data() + Off, Sym.Size);
    if (countValidInstructionSlots(Body) == 0 && Sym.Size > 0) {
      std::printf("  [sanitized: %llu zeroed bytes]\n",
                  static_cast<unsigned long long>(Sym.Size));
      continue;
    }
    std::fputs(disassemble(Body, Sym.Value).c_str(), stdout);
  }
  return 0;
}

int cmdServe(std::vector<std::string> Args) {
  uint64_t AuthoritySeed =
      std::stoull(flagValue(Args, "--authority-seed", "1"));
  std::string PortFile = flagValue(Args, "--port-file", "");
  ReactorConfig NetConfig;
  NetConfig.WorkerThreads = static_cast<size_t>(std::stoull(flagValue(
      Args, "--threads", std::to_string(NetConfig.WorkerThreads))));
  NetConfig.ReadTimeoutMs = std::stoi(flagValue(
      Args, "--io-timeout-ms", std::to_string(NetConfig.ReadTimeoutMs)));
  NetConfig.WriteTimeoutMs = NetConfig.ReadTimeoutMs;
  NetConfig.MaxConnections = static_cast<size_t>(std::stoull(flagValue(
      Args, "--max-connections", std::to_string(NetConfig.MaxConnections))));
  uint32_t RetryAfterMs = static_cast<uint32_t>(
      std::stoul(flagValue(Args, "--retry-after-ms", "100")));
  NetConfig.OverloadRetryAfterMs = RetryAfterMs;
  size_t OverloadThreshold = static_cast<size_t>(
      std::stoull(flagValue(Args, "--overload-threshold", "0")));
  size_t SessionBudget = static_cast<size_t>(
      std::stoull(flagValue(Args, "--session-budget", "0")));
  if (Args.size() != 3)
    return usage();

  Expected<Bytes> MetaBytes = readFileBytes(Args[0]);
  if (!MetaBytes)
    return fail(MetaBytes.errorMessage());
  Expected<SecretMeta> Meta = SecretMeta::deserialize(*MetaBytes);
  if (!Meta)
    return fail(Meta.errorMessage());

  Bytes Data;
  if (Args[1] != "-") {
    Expected<Bytes> DataBytes = readFileBytes(Args[1]);
    if (!DataBytes)
      return fail(DataBytes.errorMessage());
    Data = DataBytes.takeValue();
  }

  Expected<Bytes> Mr = fromHex(Args[2]);
  if (!Mr || Mr->size() != 32)
    return fail("mrenclave must be 64 hex digits");

  sgx::AttestationAuthority Authority(AuthoritySeed);
  AuthServerConfig Config;
  Config.AuthorityKey = Authority.publicKey();
  std::memcpy(Config.ExpectedMrEnclave.data(), Mr->data(), 32);
  Config.Meta = *Meta;
  Config.SecretData = Data;
  Config.RngSeed = Drbg::system().next64();
  Config.OverloadThreshold = OverloadThreshold;
  Config.OverloadRetryAfterMs = RetryAfterMs;
  Config.MaxRequestsPerSession = SessionBudget;
  AuthServer Server(std::move(Config));

  Expected<std::unique_ptr<ReactorServer>> Tcp = ReactorServer::start(
      [&Server](BytesView Request, const FrameContext &Ctx) {
        return Server.handle(Request, Ctx);
      },
      NetConfig);
  if (!Tcp)
    return fail(Tcp.errorMessage());
  std::printf("sgxelide server listening on 127.0.0.1:%u (mode: %s, "
              "%zu workers)\n",
              (*Tcp)->port(), Meta->Encrypted ? "local-data" : "remote-data",
              NetConfig.WorkerThreads);
  if (!PortFile.empty()) {
    std::string P = std::to_string((*Tcp)->port());
    if (Error E = writeFileBytes(PortFile, viewOf(P)))
      return fail(E.message());
  }
  std::fflush(stdout);

  // Serve until killed.
  sigset_t Set;
  sigemptyset(&Set);
  sigaddset(&Set, SIGINT);
  sigaddset(&Set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &Set, nullptr);
  int Sig = 0;
  sigwait(&Set, &Sig);
  (*Tcp)->stop();
  std::printf("server stopping (signal %d); stats: %zu handshakes, "
              "%zu rejected, %zu meta, %zu data\n",
              Sig, Server.stats().HandshakesCompleted,
              Server.stats().HandshakesRejected, Server.stats().MetaRequests,
              Server.stats().DataRequests);
  return 0;
}

int cmdRun(std::vector<std::string> Args) {
  uint64_t AuthoritySeed =
      std::stoull(flagValue(Args, "--authority-seed", "1"));
  uint64_t DeviceSeed = std::stoull(flagValue(Args, "--device-seed", "1"));
  std::string DataPath = flagValue(Args, "--data", "");
  TcpClientConfig NetConfig;
  NetConfig.ConnectTimeoutMs = std::stoi(flagValue(
      Args, "--connect-timeout-ms", std::to_string(NetConfig.ConnectTimeoutMs)));
  NetConfig.IoTimeoutMs = std::stoi(flagValue(
      Args, "--io-timeout-ms", std::to_string(NetConfig.IoTimeoutMs)));
  // The restore loop is the one retry owner: a dead server costs one
  // connection per attempt.
  RestorePolicy Policy;
  Policy.MaxAttempts = std::stoi(flagValue(Args, "--retries", "3"));
  Policy.RetryDelayMs = std::stoi(flagValue(Args, "--retry-backoff-ms", "25"));
  Policy.JitterSeed = DeviceSeed; // Distinct machines spread their retries.
  std::vector<std::string> ExtraEndpoints = flagValues(Args, "--endpoint");
  ProvisionerConfig ProvConfig;
  ProvConfig.Breaker.FailureThreshold = std::stoi(
      flagValue(Args, "--breaker-failures",
                std::to_string(ProvConfig.Breaker.FailureThreshold)));
  ProvConfig.Breaker.CooldownMs = std::stoi(
      flagValue(Args, "--breaker-cooldown-ms",
                std::to_string(ProvConfig.Breaker.CooldownMs)));
  ProvConfig.Breaker.JitterSeed = DeviceSeed ^ 0x50524f56ULL;
  ProvConfig.RetryBudgetInitial = std::stod(flagValue(
      Args, "--retry-budget", std::to_string(ProvConfig.RetryBudgetInitial)));
  Policy.DeadlineMs = static_cast<uint32_t>(
      std::stoul(flagValue(Args, "--deadline-ms", "0")));
  std::string ClassName = flagValue(Args, "--criticality", "default");
  if (ClassName == "critical")
    Policy.Class = Criticality::Critical;
  else if (ClassName == "default")
    Policy.Class = Criticality::Default;
  else if (ClassName == "sheddable")
    Policy.Class = Criticality::Sheddable;
  else
    return fail("--criticality expects critical|default|sheddable, got '" +
                ClassName + "'");
  std::string SealedCache = flagValue(Args, "--sealed-cache", "");
  bool TraceProvision = hasFlag(Args, "--trace-provision");
  std::string BackendName = flagValue(Args, "--svm-backend", "");
  bool Supervise = hasFlag(Args, "--supervise");
  SupervisorConfig SupConfig;
  SupConfig.MaxCrashLoops = std::stoi(flagValue(
      Args, "--max-crash-loops", std::to_string(SupConfig.MaxCrashLoops)));
  SupConfig.RecoveryBackoffBaseMs = std::stoll(
      flagValue(Args, "--recovery-backoff-ms",
                std::to_string(SupConfig.RecoveryBackoffBaseMs)));
  if (Args.size() != 5)
    return usage();

  sgx::EnclaveLayout Layout;
  if (!BackendName.empty()) {
    Expected<VmBackendKind> Backend = parseVmBackendKind(BackendName);
    if (!Backend)
      return fail(Backend.errorMessage());
    Layout.SvmBackend = *Backend;
  }

  Expected<Bytes> ElfFile = readFileBytes(Args[0]);
  if (!ElfFile)
    return fail(ElfFile.errorMessage());
  Expected<Bytes> SigBytes = readFileBytes(Args[1]);
  if (!SigBytes)
    return fail(SigBytes.errorMessage());
  Expected<sgx::SigStruct> Sig = sgx::SigStruct::deserialize(*SigBytes);
  if (!Sig)
    return fail(Sig.errorMessage());
  uint16_t Port = static_cast<uint16_t>(std::stoul(Args[2]));
  std::string Ecall = Args[3];
  Expected<Bytes> Input = fromHex(Args[4]);
  if (!Input)
    return fail("input must be hex: " + Input.errorMessage());

  sgx::SgxDevice Device(DeviceSeed);
  sgx::AttestationAuthority Authority(AuthoritySeed);
  sgx::QuotingEnclave Qe(Device, Authority);

  // Failover chain: the positional port is endpoint 0, each --endpoint
  // appends another. The Provisioner is itself a Transport, so the host
  // (and the enclave behind it) is oblivious to the chain.
  std::vector<std::unique_ptr<TcpClientTransport>> Links;
  Provisioner Chain(ProvConfig);
  auto addEndpoint = [&](const std::string &HostName, uint16_t P) {
    Links.push_back(
        std::make_unique<TcpClientTransport>(HostName, P, NetConfig));
    Chain.addEndpoint(HostName + ":" + std::to_string(P), Links.back().get());
  };
  addEndpoint("127.0.0.1", Port);
  for (const std::string &Spec : ExtraEndpoints) {
    size_t Colon = Spec.rfind(':');
    if (Colon == std::string::npos)
      return fail("--endpoint expects host:port, got '" + Spec + "'");
    addEndpoint(Spec.substr(0, Colon), static_cast<uint16_t>(std::stoul(
                                           Spec.substr(Colon + 1))));
  }

  // One observer for the chain and the host: it prints the trace and
  // keeps the verdict that splits server-unreachable into exits 13, 18,
  // 19 and 21. A deadline or budget verdict (a walk's failure, the
  // host's stop for time) is the most precise, so a later chain verdict
  // must not mask it.
  TransportErrc LastExhaustion = TransportErrc::None;
  auto Observe = [&](const ProvisionEvent &Event) {
    if (Event.Errc == TransportErrc::DeadlineExceeded ||
        Event.Errc == TransportErrc::RetryBudgetExhausted)
      LastExhaustion = Event.Errc;
    else if (Event.Kind == ProvisionEventKind::FailoverExhausted &&
             LastExhaustion != TransportErrc::DeadlineExceeded &&
             LastExhaustion != TransportErrc::RetryBudgetExhausted)
      LastExhaustion = Event.Errc;
    if (TraceProvision)
      std::fprintf(stderr, "provision: %-19s %s%s%s\n",
                   provisionEventKindName(Event.Kind), Event.Endpoint.c_str(),
                   Event.Detail.empty() ? "" : " -- ", Event.Detail.c_str());
  };
  Chain.setEventCallback(Observe);

  ElideHost Host(&Chain, &Qe);
  Host.setEventCallback(Observe);
  if (!SealedCache.empty())
    Host.setSealedPath(SealedCache);
  if (!DataPath.empty()) {
    Expected<Bytes> Data = readFileBytes(DataPath);
    if (!Data)
      return fail(Data.errorMessage());
    Host.setSecretDataFile(Data.takeValue());
  }
  if (Supervise) {
    // The supervisor owns the enclave: it builds generation 1 here and
    // rebuilds from the same image on every recovery.
    SupConfig.Restore = Policy;
    SupConfig.JitterSeed = DeviceSeed ^ 0x53555056ULL; // "SUPV"
    EnclaveSupervisor Sup(
        [&]() { return sgx::loadEnclave(Device, *ElfFile, *Sig, Layout); },
        Host, SupConfig);

    auto reportLifecycle = [&](const std::string &Message,
                               LifecycleErrc Errc) {
      std::fprintf(stderr, "sgxelide: lifecycle: %s: %s\n",
                   lifecycleErrcName(Errc), Message.c_str());
      if (std::optional<FaultRecord> F = Sup.lastFault())
        std::fprintf(stderr,
                     "sgxelide: fault: %s: %s at pc=0x%llx [backend=%s, "
                     "state=%s, generation=%llu]\n",
                     enclaveFaultClassName(F->Class), trapKindName(F->Trap),
                     static_cast<unsigned long long>(F->Pc),
                     vmBackendKindName(F->Backend),
                     lifecycleStateName(Sup.state()),
                     static_cast<unsigned long long>(F->Generation));
      return isRetryableLifecycleErrc(Errc) ? 30 : 31;
    };

    Timer T;
    if (Error Err = Sup.start()) {
      LifecycleErrc Errc = lifecycleErrcOf(Err);
      if (Errc == LifecycleErrc::None)
        return fail(Err.message());
      return reportLifecycle(Err.message(), Errc);
    }
    std::printf("restored in %.2f ms (supervised, generation %llu)\n",
                T.elapsedMs(),
                static_cast<unsigned long long>(Sup.generation()));

    Expected<sgx::EcallResult> R = Sup.ecall(Ecall, *Input, 256);
    if (!R) {
      Error Err = R.takeError();
      LifecycleErrc Errc = lifecycleErrcOf(Err);
      if (Errc == LifecycleErrc::None)
        return fail(Err.message());
      return reportLifecycle(Err.message(), Errc);
    }
    std::printf("ecall %s: status=%llu output=%s\n", Ecall.c_str(),
                static_cast<unsigned long long>(R->status()),
                toHex(R->Output).c_str());
    if (!Host.debugOutput().empty())
      std::printf("enclave debug output:\n%s", Host.debugOutput().c_str());
    return 0;
  }

  Expected<std::unique_ptr<sgx::Enclave>> E =
      sgx::loadEnclave(Device, *ElfFile, *Sig, Layout);
  if (!E)
    return fail(E.errorMessage());
  Host.attach(**E);

  Timer T;
  Expected<uint64_t> Status = Host.restore(**E, Policy);
  if (!Status)
    return fail(Status.errorMessage());
  if (*Status != 0) {
    std::fprintf(stderr,
                 "sgxelide: error: elide_restore returned status %llu (%s)\n",
                 static_cast<unsigned long long>(*Status),
                 restoreStatusName(*Status));
    return exitCodeForRestore(*Status, LastExhaustion);
  }
  std::printf("restored in %.2f ms\n", T.elapsedMs());

  Expected<sgx::EcallResult> R = (*E)->ecall(Ecall, *Input, 256);
  if (!R)
    return fail(R.errorMessage());
  if (!R->ok()) {
    std::fprintf(stderr,
                 "sgxelide: error: ecall trapped: %s: %s at pc=0x%llx "
                 "[backend=%s, state=unsupervised]\n",
                 trapKindName(R->Exec.Kind), R->Exec.Message.c_str(),
                 static_cast<unsigned long long>(R->Exec.Pc),
                 vmBackendKindName((*E)->vmBackend()));
    return 30;
  }
  std::printf("ecall %s: status=%llu output=%s\n", Ecall.c_str(),
              static_cast<unsigned long long>(R->status()),
              toHex(R->Output).c_str());
  if (!Host.debugOutput().empty())
    std::printf("enclave debug output:\n%s", Host.debugOutput().c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Command = argv[1];
  std::vector<std::string> Args(argv + 2, argv + argc);
  if (Command == "compile")
    return cmdCompile(std::move(Args));
  if (Command == "whitelist")
    return cmdWhitelist(std::move(Args));
  if (Command == "sanitize")
    return cmdSanitize(std::move(Args));
  if (Command == "audit")
    return cmdAudit(std::move(Args));
  if (Command == "measure")
    return cmdMeasure(std::move(Args));
  if (Command == "sign")
    return cmdSign(std::move(Args));
  if (Command == "objdump")
    return cmdObjdump(std::move(Args));
  if (Command == "serve")
    return cmdServe(std::move(Args));
  if (Command == "run")
    return cmdRun(std::move(Args));
  return usage();
}
