//===- perfbench/Provisioning.cpp - The server under concurrent restores --===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `provisioning` workload: an in-process `ReactorServer` with two
/// workers whose handler calls `AuthServer::handle`, serving the sanitized
/// Shas artifacts in remote mode (the largest DATA body of the seven
/// apps). Two client threads drive it in closed loop over 127.0.0.1 TCP.
/// One op is exactly the frames a shipped restorer sends: HELLO carrying
/// a fresh quote minted from the loaded Shas enclave, then META, then
/// DATA; the META and DATA plaintexts are checked against the artifacts.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "server/Reactor.h"

#include <cstring>
#include <string_view>
#include <thread>
#include <unordered_map>

using namespace elide;
using namespace perfbench;

namespace {

constexpr size_t ClientThreads = 2;
constexpr size_t ServerWorkers = 2;
constexpr int WarmUpOpsPerClient = 4;

/// Joins the client's round-trip span to the server's spans for the same
/// frame: the client files the frame before sending it, the reactor
/// handler looks it up. Frames carry fresh keys or IVs, so they are
/// unique for the life of a run.
class FrameRegistry {
public:
  struct Origin {
    uint64_t Op = 0;
    uint64_t Span = 0;
  };

  static uint64_t keyOf(BytesView Frame) {
    return std::hash<std::string_view>()(std::string_view(
        reinterpret_cast<const char *>(Frame.data()), Frame.size()));
  }
  void put(uint64_t Key, Origin O) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Pending[Key] = O;
  }
  Origin find(uint64_t Key) {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Pending.find(Key);
    return It == Pending.end() ? Origin() : It->second;
  }
  void erase(uint64_t Key) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Pending.erase(Key);
  }

private:
  std::mutex Mutex;
  std::unordered_map<uint64_t, Origin> Pending; ///< Guarded by Mutex.
};

/// One client thread's state: its own copy of the loaded Shas enclave (the
/// quote source), its seeded key material, and its connection.
struct Client {
  std::unique_ptr<sgx::Enclave> Quoter;
  std::unique_ptr<Drbg> Rng;
  std::unique_ptr<TcpClientTransport> Link;
  uint64_t NextOp = 0;
};

class Provisioning final : public Workload {
public:
  Provisioning(uint64_t Seed, Tracer &T) : Seed(Seed), T(T) {}

  Error setUp();
  PhaseResult runPhase(double Seconds) override;
  void countMetrics(std::vector<Metric> &Out) const override;
  size_t canaryMismatches() const override { return 0; }

private:
  Bytes handle(BytesView Request, const FrameContext &Ctx);
  Error runOp(Client &C);
  Expected<Bytes> exchange(Client &C, BytesView Frame);

  uint64_t Seed;
  Tracer &T;
  std::unique_ptr<Fixture> F;
  const AppBuild *Shas = nullptr;
  Bytes ExpectedMeta;
  std::unique_ptr<AuthServer> Auth;
  FrameRegistry Frames;
  std::vector<Client> Clients;
  size_t MeasuredAttempts = 0;
  size_t MeasuredOps = 0;
  AuthServerStats AuthBefore;
  ReactorStats ReactorBefore;
  /// Last, so it is destroyed first: its destructor stops the worker
  /// threads that call handle() before the members handle() uses go.
  std::unique_ptr<ReactorServer> Reactor;
};

Error Provisioning::setUp() {
  ELIDE_TRY(F, buildFixture(Seed, T));
  const std::vector<apps::AppSpec> &Apps = apps::allApps();
  for (size_t A = 0; A < Apps.size(); ++A)
    if (Apps[A].Name == "Shas")
      Shas = &F->Builds[Fixture::kind(A, true)];
  if (!Shas)
    return makeError("the Shas app is missing");
  ExpectedMeta = Shas->Artifacts.Meta.serialize();

  Auth = std::make_unique<AuthServer>(
      serverConfigFor(*Shas, *F->Plat, deriveSeed(Seed, 400)));
  ReactorConfig RC;
  RC.WorkerThreads = ServerWorkers;
  ELIDE_TRY(Reactor, ReactorServer::start(
                         [this](BytesView Request, const FrameContext &Ctx) {
                           return handle(Request, Ctx);
                         },
                         RC));

  for (size_t I = 0; I < ClientThreads; ++I) {
    Client C;
    ELIDE_TRY(C.Quoter, loadSanitized(*F, *Shas));
    C.Rng = std::make_unique<Drbg>(deriveSeed(Seed, 500 + I));
    TcpClientConfig CC;
    CC.JitterSeed = deriveSeed(Seed, 600 + I);
    C.Link = std::make_unique<TcpClientTransport>("127.0.0.1", Reactor->port(),
                                                  CC);
    // Op ids are unique across clients: client I numbers I+1, I+1+N, ...
    C.NextOp = I + 1;
    Clients.push_back(std::move(C));
  }

  for (Client &C : Clients)
    for (int I = 0; I < WarmUpOpsPerClient; ++I)
      if (Error Err = runOp(C))
        return makeError("warm-up: " + Err.message());
  return Error::success();
}

Bytes Provisioning::handle(BytesView Request, const FrameContext &Ctx) {
  if (!T.on())
    return Auth->handle(Request, Ctx);
  int64_t Start = T.nowNs();
  Bytes Response = Auth->handle(Request, Ctx);
  int64_t End = T.nowNs();
  FrameRegistry::Origin O = Frames.find(FrameRegistry::keyOf(Request));
  int64_t QueueNs = static_cast<int64_t>(Ctx.QueueDelayMs * 1e6);
  Span Queue;
  Queue.Name = "server.queue_wait";
  Queue.Id = T.newId();
  Queue.Parent = O.Span;
  Queue.Op = O.Op;
  Queue.StartNs = Start - QueueNs;
  Queue.EndNs = Start;
  T.record(Queue);
  Span Handle = Queue;
  Handle.Name = !Request.empty() && Request[0] == FrameHello
                    ? "server.handle_hello"
                    : "server.handle_record";
  Handle.Id = T.newId();
  Handle.StartNs = Start;
  Handle.EndNs = End;
  T.record(Handle);
  return Response;
}

Expected<Bytes> Provisioning::exchange(Client &C, BytesView Frame) {
  ScopedSpan Span(T, "server.roundtrip");
  uint64_t Key = FrameRegistry::keyOf(Frame);
  if (Span.active())
    Frames.put(Key, {Span.op(), Span.id()});
  Expected<Bytes> Response = C.Link->roundTrip(Frame);
  if (Span.active())
    Frames.erase(Key);
  return Response;
}

Error Provisioning::runOp(Client &C) {
  OpScope Op(C.NextOp);
  C.NextOp += ClientThreads;

  X25519Key Priv{}, Pub{};
  {
    ScopedSpan Span(T, "crypto.kex");
    C.Rng->fill(MutableBytesView(Priv.data(), Priv.size()));
    Pub = x25519PublicKey(Priv);
  }
  Bytes Hello{FrameHello};
  {
    ScopedSpan Span(T, "crypto.quote");
    sgx::ReportData Data{};
    std::memcpy(Data.data(), Pub.data(), Pub.size());
    sgx::Report R = C.Quoter->createReport(F->Plat->Qe.targetInfo(), Data);
    ELIDE_TRY(sgx::Quote Q, F->Plat->Qe.quoteReport(R));
    appendBytes(Hello, Q.serialize());
  }
  ELIDE_TRY(Bytes HelloOk, exchange(C, Hello));
  if (HelloOk.size() != HelloOkSize || HelloOk[0] != FrameHello)
    return makeError("HELLO refused: " + stringOfBytes(HelloOk));
  uint64_t Sid = readLE64(HelloOk.data() + 1);
  X25519Key ServerPub{};
  std::memcpy(ServerPub.data(), HelloOk.data() + 1 + SessionIdSize,
              ServerPub.size());
  SessionKeys Keys;
  {
    ScopedSpan Span(T, "crypto.kex");
    Keys = deriveSessionKeys(x25519(Priv, ServerPub), Pub, ServerPub);
  }

  const std::pair<uint8_t, const Bytes *> Requests[] = {
      {RequestMeta, &ExpectedMeta}, {RequestData, &Shas->Artifacts.SecretData}};
  for (const auto &[Code, Expect] : Requests) {
    Bytes Frame;
    {
      ScopedSpan Span(T, "crypto.record");
      ELIDE_TRY(Frame,
                sealSessionRecord(Sid, Keys.ClientToServer, Bytes{Code}, *C.Rng));
    }
    ELIDE_TRY(Bytes Response, exchange(C, Frame));
    Expected<Bytes> Plain = [&] {
      ScopedSpan Span(T, "crypto.record");
      return openRecord(Keys.ServerToClient, Response);
    }();
    if (!Plain)
      return makeError(std::string(Code == RequestMeta ? "META" : "DATA") +
                       " record: " + Plain.errorMessage());
    if (*Plain != *Expect)
      return makeError(std::string(Code == RequestMeta ? "META" : "DATA") +
                       " plaintext differs from the artifact");
  }
  return Error::success();
}

PhaseResult Provisioning::runPhase(double Seconds) {
  AuthServerStats AuthStart = Auth->stats();
  ReactorStats ReactorStart = Reactor->stats();
  if (!MeasuredAttempts) {
    AuthBefore = AuthStart;
    ReactorBefore = ReactorStart;
  }

  std::vector<PhaseResult> PerClient(Clients.size());
  Clock::time_point Start = Clock::now();
  Clock::time_point End = deadlineAfter(Seconds);
  std::vector<std::thread> Crew;
  for (size_t I = 0; I < Clients.size(); ++I)
    Crew.emplace_back([this, I, End, &PerClient] {
      PerClient[I] = closedLoop(End, [this, I](double &Ms) {
        Clock::time_point OpStart = Clock::now();
        if (Error Err = runOp(Clients[I]))
          return Err;
        Ms = std::chrono::duration<double, std::milli>(Clock::now() - OpStart)
                 .count();
        return Error::success();
      });
    });
  for (std::thread &Th : Crew)
    Th.join();

  PhaseResult R;
  R.Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
  for (PhaseResult &P : PerClient) {
    R.Attempted += P.Attempted;
    R.Failed += P.Failed;
    R.LatencyMs.insert(R.LatencyMs.end(), P.LatencyMs.begin(),
                       P.LatencyMs.end());
    if (R.FirstError.empty())
      R.FirstError = P.FirstError;
  }
  MeasuredAttempts += R.Attempted;
  MeasuredOps += R.LatencyMs.size();
  return R;
}

void Provisioning::countMetrics(std::vector<Metric> &Out) const {
  AuthServerStats A = Auth->stats();
  ReactorStats R = Reactor->stats();
  auto perOp = [](size_t Count, size_t Ops) {
    return Ops ? static_cast<double>(Count) / static_cast<double>(Ops) : 0.0;
  };
  Out.push_back({"server.frames_per_op",
                 perOp(R.FramesServed - ReactorBefore.FramesServed,
                       MeasuredAttempts),
                 "frame/op"});
  Out.push_back({"server.handshakes_per_op",
                 perOp(A.HandshakesCompleted - AuthBefore.HandshakesCompleted,
                       MeasuredOps),
                 "handshake/op"});
  Out.push_back({"server.connections_per_op",
                 perOp(R.ConnectionsAccepted - ReactorBefore.ConnectionsAccepted,
                       MeasuredOps),
                 "conn/op"});
}

} // namespace

Expected<std::unique_ptr<Workload>>
perfbench::makeProvisioning(uint64_t Seed, Tracer &T) {
  auto W = std::make_unique<Provisioning>(Seed, T);
  if (Error Err = W->setUp())
    return Err;
  return std::unique_ptr<Workload>(std::move(W));
}
