//===- bench/LoadGen.cpp - Stress-SGX-style provisioning load generator ---===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/LoadGen.h"

#include "server/FaultInjection.h"
#include "server/Transport.h"
#include "sgx/Attestation.h"
#include "sgx/SgxDevice.h"
#include "support/Stats.h"

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace elide;
using namespace elide::loadgen;

namespace {

using Clock = std::chrono::steady_clock;

/// The attested-enclave stand-in: a scratch enclave on a simulated device
/// whose QE signs reports over caller-chosen report data. One instance
/// serves every HELLO (quotes are minted under a lock).
struct QuoteMint {
  sgx::SgxDevice Device;
  sgx::AttestationAuthority Authority;
  sgx::QuotingEnclave Qe;
  std::unique_ptr<sgx::Enclave> Enclave;
  sgx::Measurement Mr{};
  std::mutex Mutex;

  explicit QuoteMint(uint64_t Seed)
      : Device(Seed), Authority(Seed + 1), Qe(Device, Authority) {}

  Error build() {
    sgx::SgxDevice::Builder B(Device, 0x4000);
    if (Error E = B.addPage(0x1000, sgx::PermRead, Bytes(8, 0x5a)))
      return E;
    Drbg VendorRng(11);
    Ed25519Seed Seed{};
    VendorRng.fill(MutableBytesView(Seed.data(), 32));
    sgx::SigStruct Sig = sgx::SigStruct::sign(ed25519KeyPairFromSeed(Seed),
                                              B.currentMeasurement(), 0);
    ELIDE_TRY(Enclave, B.init(Sig));
    Mr = Enclave->mrEnclave();
    return Error::success();
  }

  /// The HELLO the shipped restorer sends: a quote whose report data
  /// leads with the channel key \p ClientPub.
  Expected<Bytes> helloFor(const X25519Key &ClientPub) {
    std::lock_guard<std::mutex> Lock(Mutex);
    sgx::ReportData Rd{};
    std::memcpy(Rd.data(), ClientPub.data(), 32);
    sgx::Report R = Enclave->createReport(Qe.targetInfo(), Rd);
    ELIDE_TRY(sgx::Quote Q, Qe.quoteReport(R));
    Bytes Hello{FrameHello};
    appendBytes(Hello, Q.serialize());
    return Hello;
  }
};

/// Blocking localhost connect for the ballast pool.
int connectBallast(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

double percentile(std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Idx = static_cast<size_t>(Q * static_cast<double>(Sorted.size()));
  if (Idx >= Sorted.size())
    Idx = Sorted.size() - 1;
  return Sorted[Idx];
}

/// Per-worker accounting, merged after the join.
struct WorkerResult {
  std::vector<double> LatenciesMs;
  size_t Failed = 0;
  size_t Attempts = 0;
  size_t Shed = 0;
};

/// One attested HELLO for \p ClientPub over \p Hellos.
Expected<HelloOk> hello(QuoteMint &Mint, Transport &Hellos,
                        const X25519Key &ClientPub) {
  ELIDE_TRY(Bytes Hello, Mint.helloFor(ClientPub));
  ELIDE_TRY(Bytes Response, Hellos.roundTrip(Hello));
  return parseHelloOkFrame(Response);
}

/// One full simulated restore: an attested HELLO mints a session, then
/// the metadata comes over the record channel. Returns success; always
/// counts attempts/shed into \p R.
bool restoreOnce(QuoteMint &Mint, Transport &Hellos, Transport &Records,
                 Drbg &Rng, WorkerResult &R) {
  X25519Key Priv;
  Rng.fill(MutableBytesView(Priv.data(), 32));
  X25519Key Pub = x25519PublicKey(Priv);

  Expected<HelloOk> Ok = hello(Mint, Hellos, Pub);
  ++R.Attempts;
  if (!Ok) {
    Ok = hello(Mint, Hellos, Pub);
    ++R.Attempts;
    if (!Ok)
      return false;
  }
  SessionKeys Keys =
      deriveSessionKeys(x25519(Priv, Ok->ServerPub), Pub, Ok->ServerPub);

  for (int Attempt = 0; Attempt < 4; ++Attempt) {
    Expected<Bytes> Frame = sealSessionRecord(
        Ok->Sid, Keys.ClientToServer, Bytes{RequestMeta}, Rng);
    if (!Frame)
      return false;
    Expected<Bytes> Response = Records.roundTrip(*Frame);
    if (Response) {
      Expected<Bytes> Meta = openRecord(Keys.ServerToClient, *Response);
      return static_cast<bool>(Meta) && !Meta->empty();
    }
    if (transportErrcOf(Response) == TransportErrc::Overloaded)
      ++R.Shed;
  }
  return false;
}

} // namespace

Expected<LoadGenReport>
elide::loadgen::runProvisioningLoadGen(const LoadGenConfig &Config) {
  if (Config.Workers == 0)
    return makeError("loadgen needs at least one worker");
  if (Config.Mode == LoadGenMode::Open && Config.ArrivalPerSec <= 0)
    return makeError("open-loop mode needs a positive arrival rate");

  QuoteMint Mint(Config.Seed + 100);
  if (Error E = Mint.build())
    return E;

  SecretMeta Meta;
  Bytes Data = bytesOfString("LOADGEN-SECRET-TEXT-SECTION");
  Meta.DataLength = Data.size();
  Meta.RestoreOffset = 0x40;

  AuthServerConfig SC;
  SC.AuthorityKey = Mint.Authority.publicKey();
  SC.ExpectedMrEnclave = Mint.Mr;
  SC.Meta = Meta;
  SC.SecretData = Data;
  SC.RngSeed = Config.Seed + 200;
  SC.SessionShards = Config.SessionShards;
  SC.MaxSessions = Config.MaxSessions
                       ? Config.MaxSessions
                       : std::max<size_t>(16384, 2 * Config.TargetSessions);
  AuthServer Server(std::move(SC));

  ReactorConfig RC;
  RC.WorkerThreads = Config.ServerWorkers;
  // Ballast connections idle across the whole run; they must outlive it.
  RC.ReadTimeoutMs = Config.DurationMs + 120000;
  RC.MaxConnections = Config.MaxConnections;
  RC.ForcePollBackend = Config.ForcePollBackend;
  ELIDE_TRY(std::unique_ptr<ReactorServer> Tcp,
            ReactorServer::start(
                [&Server](BytesView Request, const FrameContext &Ctx) {
                  return Server.handle(Request, Ctx);
                },
                RC));

  // Ballast pool: persistent idle sockets the reactor must keep holding
  // while it serves the throughput traffic below.
  std::vector<int> Ballast;
  Ballast.reserve(Config.Connections);
  for (size_t I = 0; I < Config.Connections; ++I) {
    int Fd = connectBallast(Tcp->port());
    if (Fd < 0)
      break; // EMFILE or backlog pressure: report what we actually held.
    Ballast.push_back(Fd);
  }

  // Client channels. The HELLO channel stays clean; the record
  // channel optionally suffers seeded faults (that is the path with
  // retries to soak).
  TcpClientTransport HelloLink("127.0.0.1", Tcp->port());
  TcpClientTransport RecordLink("127.0.0.1", Tcp->port());
  FaultPlan Plan;
  Plan.Seed = Config.FaultSeed;
  Plan.FaultPerMille = Config.FaultPerMille;
  FaultInjectingTransport FaultyRecords(RecordLink, Plan);
  Transport &Records =
      Config.FaultPerMille ? static_cast<Transport &>(FaultyRecords)
                           : static_cast<Transport &>(RecordLink);

  // The measured phase.
  std::atomic<size_t> Succeeded{0};
  std::atomic<size_t> PeakSessions{0};
  std::atomic<size_t> ArrivalTicket{0};
  std::vector<WorkerResult> Results(Config.Workers);
  std::vector<std::thread> Crew;
  Crew.reserve(Config.Workers);
  Clock::time_point Start = Clock::now();
  Clock::time_point End = Start + std::chrono::milliseconds(Config.DurationMs);

  for (size_t W = 0; W < Config.Workers; ++W) {
    Crew.emplace_back([&, W] {
      Drbg Rng(Config.Seed ^ (0x574b5230ULL + W * 0x9e3779b9ULL));
      WorkerResult &R = Results[W];
      for (;;) {
        if (Config.TargetSessions &&
            Succeeded.load(std::memory_order_relaxed) >= Config.TargetSessions)
          break;
        if (Config.Mode == LoadGenMode::Open) {
          // Open loop: claim the next arrival slot and honor its schedule
          // even if the server is drowning -- that is the point.
          size_t Ticket = ArrivalTicket.fetch_add(1);
          Clock::time_point Due =
              Start + std::chrono::microseconds(static_cast<int64_t>(
                          1e6 * static_cast<double>(Ticket) /
                          Config.ArrivalPerSec));
          if (Due >= End)
            break;
          std::this_thread::sleep_until(Due);
        } else if (Clock::now() >= End) {
          break;
        }
        Timer T;
        bool Ok = restoreOnce(Mint, HelloLink, Records, Rng, R);
        if (Ok) {
          R.LatenciesMs.push_back(T.elapsedMs());
          Succeeded.fetch_add(1, std::memory_order_relaxed);
          size_t Live = Server.stats().LiveSessions;
          size_t Peak = PeakSessions.load(std::memory_order_relaxed);
          while (Live > Peak &&
                 !PeakSessions.compare_exchange_weak(Peak, Live))
            ;
        } else {
          ++R.Failed;
        }
      }
    });
  }
  for (std::thread &T : Crew)
    T.join();
  double MeasuredS =
      std::chrono::duration<double>(Clock::now() - Start).count();

  for (int Fd : Ballast)
    ::close(Fd);

  LoadGenReport Report;
  Report.Config = Config;
  std::vector<double> All;
  for (WorkerResult &R : Results) {
    All.insert(All.end(), R.LatenciesMs.begin(), R.LatenciesMs.end());
    Report.RestoresFailed += R.Failed;
    Report.ShedObserved += R.Shed;
    Report.RestoresTotal += R.LatenciesMs.size();
  }
  size_t Attempts = 0;
  for (WorkerResult &R : Results)
    Attempts += R.Attempts;
  std::sort(All.begin(), All.end());
  Report.DurationS = MeasuredS;
  Report.RestoresPerSec =
      MeasuredS > 0 ? static_cast<double>(Report.RestoresTotal) / MeasuredS : 0;
  Report.LatencyMs.P50 = percentile(All, 0.50);
  Report.LatencyMs.P95 = percentile(All, 0.95);
  Report.LatencyMs.P99 = percentile(All, 0.99);
  Report.LatencyMs.Mean = summarize(All).Mean;
  Report.ShedRate = Attempts ? static_cast<double>(Report.ShedObserved) /
                                   static_cast<double>(Attempts)
                             : 0;

  Report.MaxConcurrentSessions = PeakSessions.load();
  Report.FaultsInjected = FaultyRecords.counts().injected();
  Report.Server = Server.stats();
  Report.Reactor = Tcp->stats();
  Report.MaxConcurrentConnections = Report.Reactor.MaxConcurrentConnections;
  Tcp->stop();
  return Report;
}

bench::Report elide::loadgen::provisioningMetrics(const LoadGenReport &R) {
  const LoadGenConfig &C = R.Config;
  bench::Report Json("provisioning_loadgen");
  Json.add("config.open_loop", C.Mode == LoadGenMode::Open, "bool");
  Json.add("config.duration_ms", C.DurationMs, "ms");
  Json.add("config.workers", C.Workers, "thread");
  Json.add("config.connections", C.Connections, "conn");
  Json.add("config.target_sessions", C.TargetSessions, "session");
  Json.add("config.arrival_per_sec", C.ArrivalPerSec, "restore/s");
  Json.add("config.session_shards", C.SessionShards, "shard");
  Json.add("config.max_sessions", C.MaxSessions, "session");
  Json.add("config.server_workers", C.ServerWorkers, "thread");
  Json.add("config.max_connections", C.MaxConnections, "conn");
  Json.add("config.fault_seed", static_cast<double>(C.FaultSeed), "seed");
  Json.add("config.fault_per_mille", C.FaultPerMille, "permille");
  Json.add("config.force_poll", C.ForcePollBackend, "bool");
  Json.add("config.seed", static_cast<double>(C.Seed), "seed");
  Json.add("restores_total", R.RestoresTotal, "restore");
  Json.add("restores_failed", R.RestoresFailed, "restore");
  Json.add("duration_s", R.DurationS, "s");
  Json.add("restores_per_sec", R.RestoresPerSec, "restore/s");
  Json.add("latency_ms.p50", R.LatencyMs.P50, "ms");
  Json.add("latency_ms.p95", R.LatencyMs.P95, "ms");
  Json.add("latency_ms.p99", R.LatencyMs.P99, "ms");
  Json.add("latency_ms.mean", R.LatencyMs.Mean, "ms");
  Json.add("shed_rate", R.ShedRate, "ratio");
  Json.add("max_concurrent_sessions", R.MaxConcurrentSessions, "session");
  Json.add("max_concurrent_connections", R.MaxConcurrentConnections, "conn");
  Json.add("faults_injected", R.FaultsInjected, "fault");
  Json.add("server.handshakes_completed", R.Server.HandshakesCompleted,
           "handshake");
  Json.add("server.live_sessions", R.Server.LiveSessions, "session");
  Json.add("server.sessions_evicted", R.Server.SessionsEvicted, "session");
  Json.add("server.frames_served", R.Reactor.FramesServed, "frame");
  Json.add("server.connections_accepted", R.Reactor.ConnectionsAccepted,
           "conn");
  Json.add("server.connections_shed", R.Reactor.ConnectionsShed, "conn");
  Json.add("server.read_timeouts", R.Reactor.ReadTimeouts, "timeout");
  Json.add("server.write_timeouts", R.Reactor.WriteTimeouts, "timeout");
  Json.add("server.used_epoll", R.Reactor.UsedEpoll, "bool");
  Json.add("server.wakeups", R.Reactor.Wakeups, "wakeup");
  return Json;
}
