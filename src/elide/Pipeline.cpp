//===- elide/Pipeline.cpp - The developer build pipeline --------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "elide/Pipeline.h"

#include "elide/TrustedLib.h"
#include "support/Stats.h"

using namespace elide;

Expected<BuildArtifacts>
elide::buildProtectedEnclave(const std::vector<elc::SourceFile> &AppSources,
                             const Ed25519KeyPair &Vendor,
                             const BuildOptions &Options) {
  BuildArtifacts Out;
  elc::CallRegistry Registry = ElideTrustedLib::callRegistry();

  // 1. Compile the dummy enclave (runtime only) and derive the whitelist
  //    (paper section 4.1). In a real deployment this happens once and the
  //    whitelist is reused for every app; we rebuild it here so each
  //    pipeline invocation is self-contained.
  ELIDE_TRY(elc::CompileResult Dummy,
            elc::compileEnclave(ElideTrustedLib::runtimeSources(), Registry));
  ELIDE_TRY(Whitelist Keep, Whitelist::fromDummyEnclave(Dummy.ElfFile));
  Out.DummyElf = std::move(Dummy.ElfFile);
  Out.Keep = Keep;

  // 2. Compile the application enclave with the runtime linked in.
  std::vector<elc::SourceFile> AllSources = ElideTrustedLib::runtimeSources();
  AllSources.insert(AllSources.end(), AppSources.begin(), AppSources.end());
  ELIDE_TRY(elc::CompileResult App, elc::compileEnclave(AllSources, Registry));
  Out.TrustedFunctionCount = App.FunctionNames.size();
  Out.TrustedTextBytes = App.TextBytes;
  Out.PlainElf = App.ElfFile;

  // 3. Sanitize (paper section 4.2). Timed for Table 2.
  Drbg Rng(Options.RngSeed);
  Timer SanitizeTimer;
  ELIDE_TRY(SanitizedEnclave Sanitized,
            sanitizeEnclave(Out.PlainElf, Keep, Options.Storage, Rng));
  Out.SanitizeMs = SanitizeTimer.elapsedMs();
  Out.SanitizedElf = std::move(Sanitized.SanitizedElf);
  Out.SecretData = std::move(Sanitized.SecretData);
  Out.Meta = Sanitized.Meta;
  Out.Report = Sanitized.Report;

  // 4. Measure and sign both images (sgx_sign's role). The vendor signs
  //    the *sanitized* measurement -- the server later verifies exactly
  //    this identity.
  ELIDE_TRY(sgx::Measurement PlainMr,
            sgx::measureEnclaveImage(Out.PlainElf, Options.Layout));
  Out.PlainSig = sgx::SigStruct::sign(Vendor, PlainMr, Options.Attributes);
  ELIDE_TRY(sgx::Measurement SanitizedMr,
            sgx::measureEnclaveImage(Out.SanitizedElf, Options.Layout));
  Out.SanitizedSig =
      sgx::SigStruct::sign(Vendor, SanitizedMr, Options.Attributes);

  // 5. Self-audit: statically verify the sanitized image leaks nothing
  //    about the elided code before it is allowed to ship.
  ELIDE_TRY(ElfImage Image, ElfImage::parse(Out.SanitizedElf));
  // In Remote mode SecretData *is* the plaintext; in Local mode it is
  // ciphertext, so diff against the original text from the plain image.
  Bytes Plaintext;
  if (Options.Storage == SecretStorage::Remote) {
    Plaintext = Out.SecretData;
  } else {
    ELIDE_TRY(ElfImage Plain, ElfImage::parse(Out.PlainElf));
    if (const ElfSection *Text = Plain.sectionByName(".text"))
      Plaintext = Plain.sectionContents(*Text);
  }
  analysis::AuditInput Input = auditInputFor(
      Image, Sanitized.ElidedRegions, Keep, Out.Meta, Plaintext);
  analysis::AuditOptions AuditOpts;
  AuditOpts.Mode = (Options.Attributes & sgx::AttrSgx2DynamicPerms)
                       ? analysis::SgxMode::Sgx2
                       : analysis::SgxMode::Sgx1;
  if (Options.FlowAudit)
    AuditOpts.Checks = analysis::CheckEverything;
  Out.Audit = analysis::runAudit(Input, AuditOpts);
  if (Out.Audit.Errors > 0)
    return makeError("self-audit rejected the sanitized enclave:\n" +
                     Out.Audit.renderText());
  return Out;
}

analysis::AuditInput
elide::auditInputFor(const ElfImage &Image,
                     const std::vector<SecretRegion> &Regions,
                     const Whitelist &Keep, const SecretMeta &Meta,
                     BytesView SecretPlaintext) {
  analysis::AuditInput Input;
  Input.Image = &Image;
  for (const SecretRegion &R : Regions)
    Input.ElidedRegions.push_back({R.Offset, R.Length, R.Name});
  Input.WhitelistNames = Keep.names();
  Input.HaveWhitelist = true;
  analysis::AuditMeta AM;
  AM.DataLength = Meta.DataLength;
  AM.RestoreOffset = Meta.RestoreOffset;
  AM.Encrypted = Meta.Encrypted;
  AM.KeyBytes.assign(Meta.Key.begin(), Meta.Key.end());
  AM.Serialized = Meta.serialize();
  Input.Meta = std::move(AM);
  Input.SecretPlaintext = toBytes(SecretPlaintext);
  return Input;
}

ServerProvisioning elide::provisioningFor(const BuildArtifacts &Artifacts,
                                          const BuildOptions &Options) {
  (void)Options;
  ServerProvisioning P;
  P.SanitizedMrEnclave = Artifacts.SanitizedSig.MrEnclave;
  P.MrSigner = Artifacts.SanitizedSig.mrSigner();
  return P;
}
