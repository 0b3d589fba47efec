//===- elide/TrustedLib.cpp - The in-enclave SgxElide runtime --------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "elide/TrustedLib.h"

#include "elide/SecretMeta.h"
#include "server/Protocol.h"

#include <cstring>
#include <memory>
#include <optional>

using namespace elide;
using sgx::Enclave;

namespace {

/// Per-enclave runtime state shared by the tcall closures (the SDK
/// library's globals, in the paper's terms).
struct ElideState {
  sgx::TargetInfo QeTarget;
  std::optional<SessionKeys> Keys;
  std::optional<SecretMeta> Meta;
  uint64_t Sid = 0; ///< Server-issued session id from the handshake.
  X25519Key Priv{};
  X25519Key Pub{};
};

constexpr const char *SealedAad = "SGXELIDE-SEALED-SECRETS";

/// Performs remote attestation and the channel handshake (paper Figure 2,
/// the prologue to steps 2/3). Returns 0 on success, a nonzero status on
/// recoverable failures so developer code can react (paper section 3.4).
uint64_t channelInit(Enclave &E, ElideState &S) {
  E.trustedRng().fill(MutableBytesView(S.Priv.data(), 32));
  S.Pub = x25519PublicKey(S.Priv);

  // Bind the channel key into the quote's report data.
  sgx::ReportData Rd{};
  std::memcpy(Rd.data(), S.Pub.data(), 32);
  sgx::Report Report = E.createReport(S.QeTarget, Rd);

  // The untrusted host shuttles the report to the quoting enclave...
  Expected<Bytes> QuoteBytes = E.hostOcall(OcallGetQuote,
                                           serializeReport(Report));
  if (!QuoteBytes)
    return 10;

  // ...and the quote to the server as the HELLO.
  Bytes Hello;
  Hello.push_back(FrameHello);
  appendBytes(Hello, *QuoteBytes);
  Expected<Bytes> Response = E.hostOcall(OcallServerRequest, Hello);
  if (!Response)
    return 11;
  Expected<HelloOk> Ok = parseHelloOkFrame(*Response);
  if (!Ok) {
    // Only the server's verdict on the quote is a rejection. An answer
    // refused for time, shed load, or garbled on the way is transient.
    bool Verdict = !Response->empty() && (*Response)[0] == FrameError &&
                   !errorSaysDeadlineExpired(stringOfBytes(*Response));
    return Verdict ? 12 : 11;
  }

  S.Sid = Ok->Sid;
  X25519Key Shared = x25519(S.Priv, Ok->ServerPub);
  S.Keys = deriveSessionKeys(Shared, S.Pub, Ok->ServerPub);
  return 0;
}

/// One encrypted request/response exchange (paper's single-byte protocol).
Expected<Bytes> secureRequest(Enclave &E, ElideState &S, uint8_t Code) {
  if (!S.Keys)
    return makeError("channel not established");
  Bytes Request(1, Code);
  ELIDE_TRY(Bytes Frame, sealSessionRecord(S.Sid, S.Keys->ClientToServer,
                                           Request, E.trustedRng()));
  ELIDE_TRY(Bytes ResponseFrame, E.hostOcall(OcallServerRequest, Frame));
  return openRecord(S.Keys->ServerToClient, ResponseFrame);
}

/// The text base: `&elide_restore` minus the restorer's offset into the
/// text, the paper's position-independent address computation (the SDK
/// runtime knows where elide_restore was loaded).
Expected<uint64_t> textBase(Enclave &E, const SecretMeta &Meta) {
  ELIDE_TRY(uint64_t Anchor, E.symbolAddress("elide_restore"));
  return Anchor - Meta.RestoreOffset;
}

/// Writes an authenticated secret body over the sanitized text (Figure 2
/// step 6). The metadata promised exactly DataLength bytes; a body of any
/// other length (truncated or padded, yet authenticated) is refused before
/// a byte lands, so a failed attempt leaves the text all zero. Returns the
/// byte count written, 0 when refused.
Expected<uint64_t> writeText(Enclave &E, const SecretMeta &Meta,
                             BytesView Body) {
  if (Body.empty() || Body.size() != Meta.DataLength)
    return 0;
  ELIDE_TRY(uint64_t Base, textBase(E, Meta));
  // Through the permission-checked bus: the stores need the sanitizer's
  // PF_W, and the write journal invalidates any decoded copy of the text.
  if (Error Err = E.writeMemory(Base, Body))
    return Err;
  return Body.size();
}

} // namespace

void ElideTrustedLib::install(Enclave &E, const sgx::TargetInfo &QeTarget) {
  auto S = std::make_shared<ElideState>();
  S->QeTarget = QeTarget;

  // --- Generic SDK utilities -------------------------------------------

  E.registerTcall(TcallReadRand, [](Vm &V, Enclave &En) -> Expected<uint64_t> {
    uint64_t Ptr = V.reg(1), Len = V.reg(2);
    Bytes Random = En.trustedRng().bytes(Len);
    if (Error Err = En.writeMemory(Ptr, Random))
      return Err;
    return 0;
  });

  E.registerTcall(TcallMemcpy, [](Vm &V, Enclave &En) -> Expected<uint64_t> {
    uint64_t Dst = V.reg(1), Src = V.reg(2), Len = V.reg(3);
    ELIDE_TRY(Bytes Data, En.readMemory(Src, Len));
    if (Error Err = En.writeMemory(Dst, Data))
      return Err;
    return 0;
  });

  E.registerTcall(TcallMemset, [](Vm &V, Enclave &En) -> Expected<uint64_t> {
    uint64_t Ptr = V.reg(1), Val = V.reg(2), Len = V.reg(3);
    Bytes Fill(Len, static_cast<uint8_t>(Val));
    if (Error Err = En.writeMemory(Ptr, Fill))
      return Err;
    return 0;
  });

  E.registerTcall(TcallDebugPrint,
                  [](Vm &V, Enclave &En) -> Expected<uint64_t> {
    uint64_t Ptr = V.reg(1), Len = V.reg(2);
    if (!En.isDebug())
      return 0; // Production enclaves never leak through this path.
    ELIDE_TRY(Bytes Text, En.readMemory(Ptr, Len));
    // Best effort; a failing print must not kill the enclave.
    (void)En.hostOcall(OcallPrint, Text);
    return 0;
  });

  // --- SgxElide channel and metadata -----------------------------------

  E.registerTcall(TcallChannelInit,
                  [S](Vm &, Enclave &En) -> Expected<uint64_t> {
    return channelInit(En, *S);
  });

  E.registerTcall(TcallFetchMeta,
                  [S](Vm &, Enclave &En) -> Expected<uint64_t> {
    Expected<Bytes> Payload = secureRequest(En, *S, RequestMeta);
    if (!Payload)
      return 21;
    Expected<SecretMeta> Meta = SecretMeta::deserialize(*Payload);
    if (!Meta)
      return 22;
    S->Meta = *Meta;
    return 0;
  });

  E.registerTcall(TcallFetchData,
                  [S](Vm &, Enclave &En) -> Expected<uint64_t> {
    if (!S->Meta)
      return 0;
    Expected<Bytes> Payload = secureRequest(En, *S, RequestData);
    if (!Payload)
      return 0;
    return writeText(En, *S->Meta, *Payload);
  });

  E.registerTcall(TcallDecryptLocal,
                  [S](Vm &, Enclave &En) -> Expected<uint64_t> {
    if (!S->Meta || !S->Meta->Encrypted)
      return 0;
    // The shipped ciphertext comes straight from the host, as an SDK
    // protected-file read does; no enclave buffer stages it.
    ELIDE_TRY(Bytes Ciphertext, En.hostOcall(OcallReadFile, {}));
    if (Ciphertext.empty())
      return 0; // The data file is missing.
    Expected<Bytes> Plain = aesGcmDecrypt(
        BytesView(S->Meta->Key.data(), 16), BytesView(S->Meta->Iv.data(), 12),
        Ciphertext, BytesView(), S->Meta->Mac);
    if (!Plain)
      return 0; // Tampered data file or corrupted download.
    return writeText(En, *S->Meta, *Plain);
  });

  E.registerTcall(TcallMetaEncrypted,
                  [S](Vm &, Enclave &) -> Expected<uint64_t> {
    return S->Meta && S->Meta->Encrypted ? 1 : 0;
  });
  E.registerTcall(TcallMetaDataLen,
                  [S](Vm &, Enclave &) -> Expected<uint64_t> {
    return S->Meta ? S->Meta->DataLength : 0;
  });

  // --- Sealing fast path (paper step 7) ---------------------------------

  E.registerTcall(TcallSealStore,
                  [S](Vm &, Enclave &En) -> Expected<uint64_t> {
    if (!S->Meta)
      return 31;
    // Seal what the text now holds: the restored bytes themselves.
    ELIDE_TRY(uint64_t Base, textBase(En, *S->Meta));
    ELIDE_TRY(Bytes Data, En.readMemory(Base, S->Meta->DataLength));
    Bytes Plain = S->Meta->serialize();
    appendBytes(Plain, Data);
    Expected<Bytes> Blob =
        En.seal(sgx::SealPolicy::MrEnclave, Plain, viewOf(std::string(SealedAad)));
    if (!Blob)
      return 32;
    if (!En.hostOcall(OcallWriteSealed, *Blob))
      return 33;
    return 0;
  });

  E.registerTcall(TcallUnsealLoad,
                  [S](Vm &, Enclave &En) -> Expected<uint64_t> {
    Expected<Bytes> Blob = En.hostOcall(OcallReadSealed, {});
    if (!Blob || Blob->empty())
      return 0; // First launch: nothing sealed yet.
    Expected<sgx::Unsealed> Opened = En.unseal(*Blob);
    if (!Opened)
      return 0; // Wrong device/enclave or tampered blob: fall back.
    if (stringOfBytes(Opened->Aad) != SealedAad)
      return 0;
    if (Opened->Plaintext.size() < SecretMeta::SerializedSize)
      return 0;
    Expected<SecretMeta> Meta = SecretMeta::deserialize(
        BytesView(Opened->Plaintext.data(), SecretMeta::SerializedSize));
    if (!Meta)
      return 0;
    BytesView Data(Opened->Plaintext.data() + SecretMeta::SerializedSize,
                   Opened->Plaintext.size() - SecretMeta::SerializedSize);
    ELIDE_TRY(uint64_t N, writeText(En, *Meta, Data));
    if (N != 0)
      S->Meta = *Meta; // Adopted only once the text holds its data.
    return N;
  });

  // --- SGX2 ablation -----------------------------------------------------

  E.registerTcall(TcallProtectText,
                  [S](Vm &, Enclave &En) -> Expected<uint64_t> {
    if (!S->Meta)
      return 41;
    Expected<uint64_t> Start = textBase(En, *S->Meta);
    if (!Start)
      return 42;
    uint64_t End = *Start + S->Meta->DataLength;
    for (uint64_t Page = *Start & ~(sgx::EpcPageSize - 1); Page < End;
         Page += sgx::EpcPageSize)
      if (En.restrictPagePermissions(Page, sgx::PermWrite))
        return 43; // SGX1: permissions are immutable.
    return 0;
  });

  E.registerTcall(TcallIsSgx2, [](Vm &, Enclave &En) -> Expected<uint64_t> {
    return (En.attributes() & sgx::AttrSgx2DynamicPerms) ? 1 : 0;
  });
}

elc::CallRegistry ElideTrustedLib::callRegistry() {
  elc::CallRegistry R;
  R.Tcalls = {
      {"sgx_read_rand", TcallReadRand},
      {"t_memcpy", TcallMemcpy},
      {"t_memset", TcallMemset},
      {"t_debug_print", TcallDebugPrint},
      {"elide_channel_init", TcallChannelInit},
      {"elide_fetch_meta", TcallFetchMeta},
      {"elide_fetch_data", TcallFetchData},
      {"elide_decrypt_local", TcallDecryptLocal},
      {"elide_meta_encrypted", TcallMetaEncrypted},
      {"elide_meta_datalen", TcallMetaDataLen},
      {"elide_seal_store", TcallSealStore},
      {"elide_unseal_load", TcallUnsealLoad},
      {"elide_protect_text", TcallProtectText},
      {"sgx_is_sgx2", TcallIsSgx2},
  };
  R.Ocalls = {
      {"elide_server_request", OcallServerRequest},
      {"elide_read_file", OcallReadFile},
      {"host_print", OcallPrint},
  };
  return R;
}

//===----------------------------------------------------------------------===//
// The Elc runtime sources
//===----------------------------------------------------------------------===//

/// elide_rt.elc: the Runtime Restorer. `elide_restore` is the framework's
/// single public ecall (paper section 3.4). It orders the secret sources;
/// the tcall that produces the bytes verifies them and writes them over
/// the text (Figure 2 step 6).
static const char *ElideRtSource = R"elc(
// SgxElide runtime restorer (framework code; whitelisted via the dummy
// enclave, never sanitized).

extern tcall fn elide_channel_init() -> u64;
extern tcall fn elide_fetch_meta() -> u64;
extern tcall fn elide_fetch_data() -> u64;
extern tcall fn elide_decrypt_local() -> u64;
extern tcall fn elide_meta_encrypted() -> u64;
extern tcall fn elide_meta_datalen() -> u64;
extern tcall fn elide_seal_store() -> u64;
extern tcall fn elide_unseal_load() -> u64;

// Restores the secret bytes into the text section: sealed fast path
// first, then the attested server exchange. Each source's tcall writes
// only a body that authenticated (unseal, GCM tag or record open) and is
// exactly as long as the metadata promised, so a failed source leaves
// the text untouched. Returns the byte count, 0 on failure; *errc
// carries the failing step's status so the application can tell a dead
// server from a rejected attestation (and retry accordingly).
fn elide_obtain_secrets(fresh: *u64, errc: *u64) -> u64 {
  *fresh = 0;
  *errc = 0;
  var n: u64 = elide_unseal_load();
  if (n != 0) {
    return n;
  }
  *fresh = 1;
  var st: u64 = elide_channel_init();
  if (st != 0) {
    *errc = st;
    return 0;
  }
  st = elide_fetch_meta();
  if (st != 0) {
    *errc = st;
    return 0;
  }
  if (elide_meta_encrypted() != 0) {
    // Local-data mode: the ciphertext ships with the app; only the key
    // came from the server (in the metadata).
    return elide_decrypt_local();
  }
  // Remote-data mode: the server sends the plaintext over the channel. A
  // failed or short exchange is typed (23) so the host can tell this
  // transient from "there are no secrets anywhere" and retry.
  var dn: u64 = elide_fetch_data();
  if (dn == 0) {
    *errc = 23;
  }
  return dn;
}

// The one ecall SgxElide adds to an application (paper section 3.4).
// Returns 0 on success; nonzero codes let the application handle network
// or server failures its own way. A failed attempt never touches the text
// section, so the enclave stays sanitized-but-retryable.
export fn elide_restore(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  var fresh: u64 = 0;
  var errc: u64 = 0;
  var n: u64 = elide_obtain_secrets(&fresh, &errc);
  if (n == 0) {
    if (errc != 0) {
      return errc;
    }
    return 1;
  }
  if (n != elide_meta_datalen()) {
    // Unreachable while every source checks the length before it writes.
    return 2;
  }
  if (fresh != 0) {
    // Step 7: seal so future launches skip the server entirely.
    elide_seal_store();
  }
  return 0;
}
)elc";

/// elide_sdk.elc: utility functions linked into every enclave. These (and
/// the restorer above) are what the dummy enclave contains, so they form
/// the whitelist -- the analogue of the paper's 170 statically linked SDK
/// functions.
static const char *ElideSdkSource = R"elc(
// SgxElide SDK utility library (framework code, whitelisted).

extern tcall fn sgx_read_rand(buf: *u8, len: u64);
extern tcall fn t_memcpy(dst: *u8, src: *u8, len: u64);
extern tcall fn t_memset(p: *u8, val: u64, len: u64);
extern tcall fn t_debug_print(p: *u8, len: u64);
extern tcall fn sgx_is_sgx2() -> u64;
extern tcall fn elide_protect_text() -> u64;

fn memcpy8(dst: *u8, src: *u8, len: u64) {
  for (var i: u64 = 0; i < len; i = i + 1) {
    dst[i] = src[i];
  }
}

fn memset8(p: *u8, val: u64, len: u64) {
  var b: u8 = val as u8;
  for (var i: u64 = 0; i < len; i = i + 1) {
    p[i] = b;
  }
}

fn memcmp8(a: *u8, b: *u8, len: u64) -> u64 {
  for (var i: u64 = 0; i < len; i = i + 1) {
    if (a[i] != b[i]) {
      return 1;
    }
  }
  return 0;
}

fn strlen8(s: *u8) -> u64 {
  var n: u64 = 0;
  while (s[n] != 0) {
    n = n + 1;
  }
  return n;
}

fn load_le32(p: *u8) -> u64 {
  return (p[0] as u64) | (p[1] as u64 << 8) | (p[2] as u64 << 16) | (p[3] as u64 << 24);
}

fn store_le32(p: *u8, v: u64) {
  p[0] = v as u8;
  p[1] = (v >> 8) as u8;
  p[2] = (v >> 16) as u8;
  p[3] = (v >> 24) as u8;
}

fn load_be32(p: *u8) -> u64 {
  return (p[0] as u64 << 24) | (p[1] as u64 << 16) | (p[2] as u64 << 8) | (p[3] as u64);
}

fn store_be32(p: *u8, v: u64) {
  p[0] = (v >> 24) as u8;
  p[1] = (v >> 16) as u8;
  p[2] = (v >> 8) as u8;
  p[3] = v as u8;
}

fn load_le64(p: *u8) -> u64 {
  return load_le32(p) | (load_le32(p + 4) << 32);
}

fn store_le64(p: *u8, v: u64) {
  store_le32(p, v & 0xffffffff);
  store_le32(p + 4, v >> 32);
}

// 32-bit rotates (the crypto kernels live on these).
fn rotl32(x: u64, n: u64) -> u64 {
  var v: u64 = x & 0xffffffff;
  return ((v << n) | (v >> (32 - n))) & 0xffffffff;
}

fn rotr32(x: u64, n: u64) -> u64 {
  var v: u64 = x & 0xffffffff;
  return ((v >> n) | (v << (32 - n))) & 0xffffffff;
}

fn print_str(s: *u8) {
  t_debug_print(s, strlen8(s));
}

fn print_u64(v: u64) {
  var buf: u8[24];
  var i: u64 = 23;
  buf[i] = '\n';
  if (v == 0) {
    i = i - 1;
    buf[i] = '0';
  }
  while (v != 0) {
    i = i - 1;
    buf[i] = ('0' + (v % 10)) as u8;
    v = v / 10;
  }
  t_debug_print(&buf[i], 24 - i);
}
)elc";

std::vector<elc::SourceFile> ElideTrustedLib::runtimeSources() {
  return {{"elide_rt.elc", ElideRtSource},
          {"elide_sdk.elc", ElideSdkSource}};
}
