//===- perfbench/Main.cpp - Entry point of the benchmark --------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload and prints its metrics:
///
///   perfbench --workload cold_start|steady_kernels|provisioning
///             --seed N --seconds S --trace 0|1 [--trace-out FILE]
///             [--git-sha SHA]
///
/// A run is three rounds of set-up (build the 7 x 2 artifacts, start the
/// server, warm up) each followed by S/3 seconds of measurement; the
/// median set-up is `setup_s`. With `--trace 0` the measurement is
/// untraced and gives the end-to-end metrics. With `--trace 1` untraced
/// and traced phases of about a second alternate; spans from the traced
/// phases give the per-layer metrics, and the two rates give the tracing
/// overhead. Single-threaded workloads rotate over the CPUs (CpuRotator).
/// The last stdout line is the JSON result.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "vm/ExecBackend.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <pthread.h>
#include <sched.h>
#include <thread>
#include <unistd.h>

using namespace elide;
using namespace perfbench;

namespace {

constexpr int SetupRounds = 3;

/// Moves a thread round-robin over the CPUs it may run on. On a shared
/// host the vCPUs run at different speeds at the same moment (four pinned
/// copies of one workload differed by up to 1.5x, in a stable order), and
/// the scheduler keeps a single-threaded run on one of them, so whole
/// runs came out fast or slow. Visiting every CPU in turn averages that
/// out within each run instead of between runs.
class CpuRotator {
public:
  explicit CpuRotator(pthread_t Target) : Target(Target) {
    cpu_set_t Allowed;
    CPU_ZERO(&Allowed);
    if (pthread_getaffinity_np(Target, sizeof(Allowed), &Allowed) == 0)
      for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
        if (CPU_ISSET(Cpu, &Allowed))
          Cpus.push_back(Cpu);
    if (Cpus.size() > 1)
      Worker = std::thread([this] { loop(); });
  }
  ~CpuRotator() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stop = true;
    }
    Wake.notify_all();
    if (Worker.joinable())
      Worker.join();
  }
  CpuRotator(const CpuRotator &) = delete;
  CpuRotator &operator=(const CpuRotator &) = delete;

private:
  static constexpr std::chrono::milliseconds Period{100};

  void loop() {
    std::unique_lock<std::mutex> Lock(Mutex);
    for (size_t Next = 0;; Next = (Next + 1) % Cpus.size()) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpus[Next], &One);
      pthread_setaffinity_np(Target, sizeof(One), &One);
      if (Wake.wait_for(Lock, Period, [this] { return Stop; }))
        break;
    }
    // Hand the thread back its original CPU set.
    cpu_set_t All;
    CPU_ZERO(&All);
    for (int Cpu : Cpus)
      CPU_SET(Cpu, &All);
    pthread_setaffinity_np(Target, sizeof(All), &All);
  }

  pthread_t Target;
  std::vector<int> Cpus;
  std::mutex Mutex;
  std::condition_variable Wake;
  bool Stop = false; ///< Guarded by Mutex.
  std::thread Worker; ///< Last: uses the members above.
};

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
  std::string GitSha = "unknown";
};

struct WorkloadEntry {
  const char *Name;
  Expected<std::unique_ptr<Workload>> (*Make)(uint64_t, Tracer &);
  /// Runs on the calling thread alone, so that thread may rotate over the
  /// CPUs. A workload that starts threads must not: they would inherit a
  /// one-CPU affinity.
  bool SingleThreaded;
};

const WorkloadEntry *workloadNamed(const std::string &Name) {
  static const WorkloadEntry Table[] = {
      {"cold_start", makeColdStart, true},
      {"steady_kernels", makeSteadyKernels, true},
      {"provisioning", makeProvisioning, false},
  };
  for (const WorkloadEntry &E : Table)
    if (Name == E.Name)
      return &E;
  return nullptr;
}

/// Per-layer metrics timed from spans: the median over ops of the op's
/// time in the span (or its self time).
struct TimedLayer {
  std::string Metric;
  std::string Span;
  bool Self;
};

std::vector<TimedLayer> timedLayers() {
  std::vector<TimedLayer> L = {
      {"sgx.load_ms", "sgx.load", false},
      {"elide.restore_ms", "elide.restore", false},
      {"elide.restore_self_ms", "elide.restore", true},
      {"app.first_ecall_ms", "app.first_ecall", false},
      {"server.handle_hello_ms", "server.handle_hello", false},
      {"server.handle_record_ms", "server.handle_record", false},
      {"server.queue_wait_ms", "server.queue_wait", false},
      {"server.roundtrip_ms", "server.roundtrip", false},
      {"server.transport_ms", "server.roundtrip", true},
      {"crypto.quote_ms", "crypto.quote", false},
      {"crypto.kex_ms", "crypto.kex", false},
      {"crypto.record_ms", "crypto.record", false},
      {"elide.build_ms", "elide.build", false},
  };
  for (const apps::AppSpec &App : apps::allApps())
    L.push_back({"app.suite_ms." + App.Name, "app.suite." + App.Name, false});
  return L;
}

/// Every per-layer metric, in report order, with its unit. A workload
/// that never calls into a layer reports it as 0.
std::vector<Metric> perLayerCatalog() {
  std::vector<Metric> C;
  for (const TimedLayer &L : timedLayers())
    C.push_back({L.Metric, 0, "ms"});
  C.push_back({"vm.restore_instructions", 0, "instr"});
  C.push_back({"elide.restored_bytes", 0, "bytes"});
  for (const apps::AppSpec &App : apps::allApps())
    C.push_back({"vm.suite_instructions." + App.Name, 0, "instr"});
  C.push_back({"vm.minstr_per_s", 0, "Minstr/s"});
  C.push_back({"server.frames_per_op", 0, "frame/op"});
  C.push_back({"server.handshakes_per_op", 0, "handshake/op"});
  C.push_back({"server.connections_per_op", 0, "conn/op"});
  C.push_back({"trace.untraced_ops_per_s", 0, "op/s"});
  C.push_back({"trace.traced_ops_per_s", 0, "op/s"});
  C.push_back({"trace.overhead_pct", 0, "%"});
  return C;
}

void setMetric(std::vector<Metric> &Catalog, const Metric &M) {
  for (Metric &C : Catalog)
    if (C.Name == M.Name) {
      C.Value = M.Value;
      return;
    }
  std::fprintf(stderr, "perfbench: metric %s is not in the catalog\n",
               M.Name.c_str());
  std::abort();
}

double peakRssMiB() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

const char *compilerName() {
#if defined(__clang__)
  return "clang-" __clang_version__;
#elif defined(__GNUC__)
  return "gcc-" __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload "
               "cold_start|steady_kernels|provisioning --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] "
               "[--git-sha SHA]\n",
               Why.c_str());
  return 2;
}

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Why) {
  for (int I = 1; I < Argc; I += 2) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc) {
      Why = "missing value for " + Flag;
      return false;
    }
    std::string Value = Argv[I + 1];
    char *End = nullptr;
    bool Ok = !Value.empty();
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      Ok = Ok && *End == '\0' && Value[0] != '-';
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      Ok = Ok && *End == '\0' && A.Seconds > 0 && A.Seconds <= 120;
    } else if (Flag == "--trace") {
      Ok = Value == "0" || Value == "1";
      A.Trace = Value == "1";
    } else if (Flag == "--trace-out") {
      A.TraceOut = Value;
    } else if (Flag == "--git-sha") {
      A.GitSha = Value;
    } else {
      Why = "unknown flag " + Flag;
      return false;
    }
    if (!Ok) {
      Why = "bad value for " + Flag + ": " + Value;
      return false;
    }
  }
  if (!workloadNamed(A.Workload)) {
    Why = "unknown workload '" + A.Workload + "'";
    return false;
  }
  return true;
}

/// All phases of one kind (traced or untraced), merged.
struct Totals {
  size_t Attempted = 0;
  size_t Failed = 0;
  std::vector<double> LatencyMs;
  double Seconds = 0;
  std::string FirstError;

  void add(PhaseResult &&P) {
    Attempted += P.Attempted;
    Failed += P.Failed;
    LatencyMs.insert(LatencyMs.end(), P.LatencyMs.begin(), P.LatencyMs.end());
    Seconds += P.Seconds;
    if (FirstError.empty())
      FirstError = std::move(P.FirstError);
  }
  double opsPerSecond() const {
    return Seconds > 0 ? static_cast<double>(LatencyMs.size()) / Seconds : 0;
  }
};

void printLatency(const char *Label, const Totals &T) {
  size_t N = T.LatencyMs.size();
  std::printf("# %s latency ms (n=%zu verified ops):", Label, N);
  for (double Q : {0.50, 0.90, 0.99}) {
    size_t Beyond = N - std::min(N, static_cast<size_t>(std::ceil(
                                        Q * static_cast<double>(N))));
    std::printf(" p%.0f %.4f (%zu beyond)", Q * 100, quantile(T.LatencyMs, Q),
                Beyond);
  }
  std::printf("\n");
}

void printLayers(const std::map<std::string, LayerSummary> &Layers) {
  std::printf("# %-26s %8s %11s %11s %11s %11s\n", "span", "calls",
              "total_ms", "self_ms", "p50_call", "p50_op");
  for (const auto &[Name, L] : Layers)
    std::printf("# %-26s %8zu %11.3f %11.3f %11.4f %11.4f\n", Name.c_str(),
                L.Calls, L.TotalMs, L.SelfMs, L.P50CallMs, L.P50OpMs);
}

/// Runs \p W for \p Seconds: one untraced phase, or, given a tracer,
/// untraced and traced phases of about a second alternating, so both see
/// the same machine.
void measure(Workload &W, double Seconds, Tracer *T, Totals &Untraced,
             Totals &Traced) {
  if (!T) {
    Untraced.add(W.runPhase(Seconds));
    return;
  }
  int Pairs = std::max(1, static_cast<int>(std::lround(Seconds / 2)));
  double PhaseSeconds = Seconds / (2.0 * Pairs);
  for (int I = 0; I < Pairs; ++I) {
    Untraced.add(W.runPhase(PhaseSeconds));
    T->setOn(true);
    Traced.add(W.runPhase(PhaseSeconds));
    T->setOn(false);
  }
}

std::vector<Metric> endToEndMetrics(const Totals &Untraced,
                                    std::vector<double> SetupSeconds) {
  std::sort(SetupSeconds.begin(), SetupSeconds.end());
  return {
      {"ops_per_s", Untraced.opsPerSecond(), "op/s"},
      {"p50_ms", quantile(Untraced.LatencyMs, 0.50), "ms"},
      {"p90_ms", quantile(Untraced.LatencyMs, 0.90), "ms"},
      {"p99_ms", quantile(Untraced.LatencyMs, 0.99), "ms"},
      {"setup_s", SetupSeconds[SetupSeconds.size() / 2], "s"},
      {"peak_rss_mb", peakRssMiB(), "MiB"},
  };
}

/// \p Counts are the workload's count metrics.
std::vector<Metric> perLayerMetrics(const Totals &Untraced,
                                    const Totals &Traced,
                                    const std::vector<Span> &Spans,
                                    const std::vector<Metric> &Counts) {
  std::map<std::string, LayerSummary> Layers = Tracer::summarize(Spans);
  printLayers(Layers);
  std::vector<Metric> Metrics = perLayerCatalog();
  for (const TimedLayer &L : timedLayers()) {
    auto It = Layers.find(L.Span);
    if (It != Layers.end())
      setMetric(Metrics,
                {L.Metric, L.Self ? It->second.P50OpSelfMs : It->second.P50OpMs,
                 "ms"});
  }
  for (const Metric &M : Counts)
    setMetric(Metrics, M);
  double U = Untraced.opsPerSecond(), T = Traced.opsPerSecond();
  setMetric(Metrics, {"trace.untraced_ops_per_s", U, "op/s"});
  setMetric(Metrics, {"trace.traced_ops_per_s", T, "op/s"});
  setMetric(Metrics,
            {"trace.overhead_pct", U > 0 ? 100.0 * (U - T) / U : 0, "%"});
  std::printf("# tracing overhead: untraced %.4f op/s, traced %.4f op/s\n", U,
              T);
  return Metrics;
}

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Metrics.size(); ++I) {
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), V,
                Metrics[I].Unit.c_str());
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Why;
  if (!parseArgs(Argc, Argv, A, Why))
    return usage(Why);
  // defaultVmBackendKind() reads this variable; it would swap the VM
  // engine under every workload, so a run with it set measures something
  // else than the numbers it would be compared with.
  if (std::getenv("ELIDE_SVM_BACKEND")) {
    std::fprintf(stderr, "perfbench: refusing to run with ELIDE_SVM_BACKEND "
                         "set; unset it to measure the default engine\n");
    return 2;
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "build=%s compiler=\"%s\" nproc=%ld git=%s vm_backend=%s\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
              compilerName(), sysconf(_SC_NPROCESSORS_ONLN), A.GitSha.c_str(),
              vmBackendKindName(defaultVmBackendKind()));

  const WorkloadEntry &Entry = *workloadNamed(A.Workload);
  std::optional<CpuRotator> Rotate;
  if (Entry.SingleThreaded)
    Rotate.emplace(pthread_self());

  // The run is three rounds, each a set-up followed by a third of the
  // measurement, so the set-up samples are spread over the run instead of
  // sharing one moment of the machine.
  Tracer T;
  std::vector<double> SetupSeconds;
  std::vector<Span> Spans;
  std::vector<Metric> Counts;
  size_t Mismatches = 0;
  Totals Untraced, Traced;
  for (int Round = 0; Round < SetupRounds; ++Round) {
    T.setOn(A.Trace);
    Clock::time_point Start = Clock::now();
    Expected<std::unique_ptr<Workload>> Made = Entry.Make(A.Seed, T);
    if (!Made) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   Made.errorMessage().c_str());
      return 1;
    }
    std::unique_ptr<Workload> W = Made.takeValue();
    SetupSeconds.push_back(
        std::chrono::duration<double>(Clock::now() - Start).count());
    T.setOn(false);
    // Keep the build spans; the warm-up ops are not part of the measurement.
    for (const Span &S : T.drain())
      if (std::strcmp(S.Name, "elide.build") == 0)
        Spans.push_back(S);

    measure(*W, A.Seconds / SetupRounds, A.Trace ? &T : nullptr, Untraced,
            Traced);
    std::vector<Span> Measured = T.drain();
    Spans.insert(Spans.end(), Measured.begin(), Measured.end());
    Mismatches += W->canaryMismatches();
    // Exact for a build, or ratios over the round's slice: the last
    // round's stand for the run.
    Counts.clear();
    W->countMetrics(Counts);
  }

  std::printf("# setup_s rounds:");
  for (double S : SetupSeconds)
    std::printf(" %.4f", S);
  std::printf("\n");
  for (const Totals *P : {&Untraced, &Traced})
    if (!P->FirstError.empty())
      std::printf("# first failure: %s\n", P->FirstError.c_str());
  std::printf("# untraced: %zu attempted, %zu failed, %.4f op/s over "
              "%.3f s\n",
              Untraced.Attempted, Untraced.Failed, Untraced.opsPerSecond(),
              Untraced.Seconds);
  printLatency("untraced", Untraced);
  std::printf("# canary mismatches: %zu\n", Mismatches);
  size_t Attempted = Untraced.Attempted + Traced.Attempted;
  size_t Failed = Untraced.Failed + Traced.Failed;

  std::vector<Metric> Metrics;
  if (!A.Trace) {
    Metrics = endToEndMetrics(Untraced, SetupSeconds);
  } else {
    std::printf("# traced: %zu attempted, %zu failed, %.4f op/s over "
                "%.3f s\n",
                Traced.Attempted, Traced.Failed, Traced.opsPerSecond(),
                Traced.Seconds);
    Metrics = perLayerMetrics(Untraced, Traced, Spans, Counts);
    if (!A.TraceOut.empty()) {
      if (Error Err = Tracer::writeChromeJson(A.TraceOut, Spans)) {
        std::fprintf(stderr, "perfbench: %s\n", Err.message().c_str());
        return 1;
      }
      std::printf("# %zu spans written to %s\n", Spans.size(),
                  A.TraceOut.c_str());
    }
  }
  printResult(Failed == 0 && Attempted > 0, Attempted, Failed, Metrics);
  return 0;
}
