//===- perfbench/Trace.cpp - Spans recorded around layer calls -------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

using namespace perfbench;

namespace {

thread_local uint64_t CurrentOp = 0;
thread_local uint64_t CurrentSpan = 0;

} // namespace

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::ceil(Q * static_cast<double>(Values.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Values[std::min(Idx, Values.size() - 1)];
}

Tracer::Buffer &Tracer::local() {
  thread_local Tracer *Owner = nullptr;
  thread_local Buffer *Mine = nullptr;
  if (Owner != this || !Mine) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Buffers.push_back(std::make_unique<Buffer>());
    Mine = Buffers.back().get();
    Mine->Thread = static_cast<uint32_t>(Buffers.size());
    Owner = this;
  }
  return *Mine;
}

void Tracer::record(const Span &S) {
  Buffer &B = local();
  B.Spans.push_back(S);
  B.Spans.back().Thread = B.Thread;
}

std::vector<Span> Tracer::drain() {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<Span> All;
  for (const auto &B : Buffers) {
    All.insert(All.end(), B->Spans.begin(), B->Spans.end());
    B->Spans.clear();
  }
  std::sort(All.begin(), All.end(), [](const Span &A, const Span &B) {
    return A.StartNs < B.StartNs;
  });
  return All;
}

elide::Error Tracer::writeChromeJson(const std::string &Path,
                                     const std::vector<Span> &Spans) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return elide::makeError("cannot write " + Path);
  std::fprintf(Out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}%s\n",
                 S.Name, S.Thread, static_cast<double>(S.StartNs) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Op),
                 I + 1 == Spans.size() ? "" : ",");
  }
  std::fprintf(Out, "]}\n");
  if (std::fclose(Out) != 0)
    return elide::makeError("cannot finish writing " + Path);
  return elide::Error::success();
}

std::map<std::string, LayerSummary>
Tracer::summarize(const std::vector<Span> &Spans) {
  std::unordered_map<uint64_t, size_t> ById;
  for (size_t I = 0; I < Spans.size(); ++I)
    ById[Spans[I].Id] = I;
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans) {
    auto It = S.Parent ? ById.find(S.Parent) : ById.end();
    if (It != ById.end())
      ChildNs[It->second] += S.EndNs - S.StartNs;
  }

  struct Acc {
    std::vector<double> CallMs;
    std::map<uint64_t, std::pair<double, double>> PerOp; // total, self
  };
  std::map<std::string, Acc> ByName;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Ms = static_cast<double>(S.EndNs - S.StartNs) / 1e6;
    double SelfMs = static_cast<double>(S.EndNs - S.StartNs - ChildNs[I]) / 1e6;
    Acc &A = ByName[S.Name];
    A.CallMs.push_back(Ms);
    // A span outside any op (set-up work) counts as an op of its own.
    auto &Op = A.PerOp[S.Op ? S.Op : ~S.Id];
    Op.first += Ms;
    Op.second += SelfMs;
  }

  std::map<std::string, LayerSummary> Out;
  for (auto &[Name, A] : ByName) {
    LayerSummary L;
    L.Calls = A.CallMs.size();
    std::vector<double> OpMs, OpSelfMs;
    for (const auto &[Op, Times] : A.PerOp) {
      L.TotalMs += Times.first;
      L.SelfMs += Times.second;
      OpMs.push_back(Times.first);
      OpSelfMs.push_back(Times.second);
    }
    L.P50CallMs = quantile(A.CallMs, 0.5);
    L.P50OpMs = quantile(OpMs, 0.5);
    L.P50OpSelfMs = quantile(OpSelfMs, 0.5);
    Out[Name] = L;
  }
  return Out;
}

OpScope::OpScope(uint64_t Op) : Saved(CurrentOp) { CurrentOp = Op; }

OpScope::~OpScope() { CurrentOp = Saved; }

ScopedSpan::ScopedSpan(Tracer &Tr, const char *Name) {
  if (!Tr.on())
    return;
  T = &Tr;
  S.Name = Name;
  S.Id = Tr.newId();
  S.Parent = CurrentSpan;
  S.Op = CurrentOp;
  SavedCurrent = CurrentSpan;
  CurrentSpan = S.Id;
  S.StartNs = Tr.nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!T)
    return;
  S.EndNs = T->nowNs();
  CurrentSpan = SavedCurrent;
  T->record(S);
}
