//===- bench/AblationBlacklist.cpp - Blacklist vs whitelist ablation -----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the design decision in the paper's section 3.2: the authors
/// first built a *blacklist* sanitizer (developers annotate secret
/// functions; only those are redacted and stored) before settling on the
/// *whitelist* (redact everything that is not framework code). This bench
/// compares the two on the AES benchmark: bytes redacted, secret-data
/// size, and sanitize time, as the annotation set grows.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/Stats.h"

#include <cstdio>

using namespace elide;
using namespace elide::bench;

int main() {
  BenchScenario &S = scenarioFor("AES", SecretStorage::Remote);

  // Increasingly complete manual annotation sets a developer might write.
  const std::vector<std::pair<const char *, std::set<std::string>>> Sets = {
      {"core only (2 fns)", {"aes_encrypt_block", "aes_decrypt_block"}},
      {"+key schedule (4)",
       {"aes_encrypt_block", "aes_decrypt_block", "aes_expand_key",
        "aes_add_round_key"}},
      {"+all rounds (10)",
       {"aes_encrypt_block", "aes_decrypt_block", "aes_expand_key",
        "aes_add_round_key", "aes_sub_bytes", "aes_inv_sub_bytes",
        "aes_shift_rows", "aes_inv_shift_rows", "aes_mix_columns",
        "aes_inv_mix_columns"}},
      {"+helpers (13)",
       {"aes_encrypt_block", "aes_decrypt_block", "aes_expand_key",
        "aes_add_round_key", "aes_sub_bytes", "aes_inv_sub_bytes",
        "aes_shift_rows", "aes_inv_shift_rows", "aes_mix_columns",
        "aes_inv_mix_columns", "aes_xtime", "aes_gmul", "aes_run"}},
  };

  printTableHeader("Ablation: blacklist (annotate secrets) vs whitelist "
                   "(paper sec. 3.2), AES enclave");
  std::printf("%-22s %10s %12s %12s %14s\n", "Mode", "Redacted",
              "Red. bytes", "Data bytes", "Sanitize ms");
  std::printf("%.*s\n", 74,
              "---------------------------------------------------------------"
              "-------------");

  Drbg Rng(9);
  for (const auto &[Label, Set] : Sets) {
    std::vector<double> Ms;
    Expected<SanitizedEnclave> Last = makeError("unset");
    for (int Run = 0; Run < 10; ++Run) {
      Timer T;
      Last = sanitizeEnclaveBlacklist(S.Artifacts.PlainElf, Set,
                                      SecretStorage::Remote, Rng);
      Ms.push_back(T.elapsedMs());
      if (!Last) {
        std::fprintf(stderr, "blacklist sanitize failed: %s\n",
                     Last.errorMessage().c_str());
        return 1;
      }
    }
    Summary Time = summarize(Ms);
    std::printf("blacklist: %-11s %10zu %12zu %12zu %8.3f±%5.3f\n", Label,
                Last->Report.SanitizedFunctions, Last->Report.SanitizedBytes,
                Last->SecretData.size(), Time.Mean, Time.StdDev);
  }

  {
    std::vector<double> Ms;
    Expected<SanitizedEnclave> Last = makeError("unset");
    for (int Run = 0; Run < 10; ++Run) {
      Timer T;
      Last = sanitizeEnclave(S.Artifacts.PlainElf, S.Artifacts.Keep,
                             SecretStorage::Remote, Rng);
      Ms.push_back(T.elapsedMs());
      if (!Last)
        return 1;
    }
    Summary Time = summarize(Ms);
    std::printf("%-22s %10zu %12zu %12zu %8.3f±%5.3f\n",
                "whitelist (paper)", Last->Report.SanitizedFunctions,
                Last->Report.SanitizedBytes, Last->SecretData.size(),
                Time.Mean, Time.StdDev);
  }

  std::printf("\nExpected shape: the blacklist redacts less and stores less "
              "(it keeps only the\nannotated ranges) but grows with developer "
              "effort and risks missing a secret;\nthe whitelist redacts "
              "every user function with zero annotations -- the\n"
              "transparency the paper chose.\n");
  return 0;
}
