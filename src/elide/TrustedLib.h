//===- elide/TrustedLib.h - The in-enclave SgxElide runtime ---------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trusted half of SgxElide: the native "SDK library" functions
/// (crypto, channel, sealing, randomness) registered as tcalls, plus the
/// Elc runtime sources -- containing `elide_restore`, the single ecall the
/// paper's API exposes -- that are linked into every protected enclave and
/// into the dummy enclave from which the whitelist derives.
///
/// The restorer itself is Elc code executing inside the enclave. The
/// tcalls that produce the secret bytes (remote fetch, local decrypt,
/// unseal) verify them and write them straight over the text section, as
/// an SDK library call would: the self-modification really happens
/// through the permission-checked EPC, not behind the model's back.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_ELIDE_TRUSTEDLIB_H
#define SGXELIDE_ELIDE_TRUSTEDLIB_H

#include "elc/CodeGen.h"
#include "elc/Compiler.h"
#include "elide/Bridge.h"
#include "sgx/Enclave.h"

namespace elide {

/// The in-enclave SgxElide runtime.
class ElideTrustedLib {
public:
  /// Installs all trusted library functions into \p E. \p QeTarget is the
  /// quoting enclave's TARGETINFO (provided by the platform, as aesm
  /// does). Call once per enclave, after loading.
  static void install(sgx::Enclave &E, const sgx::TargetInfo &QeTarget);

  /// The extern-name-to-index registry handed to the Elc compiler.
  static elc::CallRegistry callRegistry();

  /// The Elc sources of the runtime: the restorer (`elide_rt.elc`) and
  /// the SDK utility library (`elide_sdk.elc`). Linked into every
  /// application enclave; alone they form the dummy enclave.
  static std::vector<elc::SourceFile> runtimeSources();
};

} // namespace elide

#endif // SGXELIDE_ELIDE_TRUSTEDLIB_H
