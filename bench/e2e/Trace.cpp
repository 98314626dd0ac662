//===- Trace.cpp - bench_e2e span recorder --------------------------------===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

using namespace e2e;

namespace {

struct Event {
  const char *Name;
  double T0, T1; ///< Microseconds; T1 < 0 while open.
  int64_t Parent;
  uint64_t Request;
  unsigned Tid;
};

const std::chrono::steady_clock::time_point Epoch =
    std::chrono::steady_clock::now();
std::atomic<bool> Enabled{false};
std::mutex EventsM;
std::vector<Event> Events; // Guarded by EventsM.
thread_local int64_t OpenTop = -1;

unsigned threadIndex() {
  static std::atomic<unsigned> Next{1};
  thread_local unsigned Index = Next.fetch_add(1);
  return Index;
}

int64_t push(Event E) {
  std::lock_guard<std::mutex> L(EventsM);
  Events.push_back(E);
  return static_cast<int64_t>(Events.size() - 1);
}

/// Sum of direct children's durations per event (closed events only).
std::vector<double> childSums(const std::vector<Event> &Ev) {
  std::vector<double> Sum(Ev.size(), 0.0);
  for (const Event &E : Ev)
    if (E.Parent >= 0 && E.T1 >= 0)
      Sum[static_cast<std::size_t>(E.Parent)] += E.T1 - E.T0;
  return Sum;
}

void jsonString(std::FILE *F, const char *S) {
  std::fputc('"', F);
  for (; *S; ++S) {
    if (*S == '"' || *S == '\\')
      std::fputc('\\', F);
    std::fputc(*S, F);
  }
  std::fputc('"', F);
}

} // namespace

double e2e::nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void e2e::enableTracing() { Enabled.store(true); }
bool e2e::tracingEnabled() { return Enabled.load(std::memory_order_relaxed); }

Span::Span(const char *Name, uint64_t Request)
    : Name(Name), Request(Request), T0(nowUs()) {
  if (!tracingEnabled())
    return;
  Parent = OpenTop;
  Id = push({Name, T0, -1.0, Parent, Request, threadIndex()});
  OpenTop = Id;
}

Span::~Span() { close(); }

double Span::close() {
  if (Ms >= 0)
    return Ms;
  double T1 = nowUs();
  Ms = (T1 - T0) / 1000.0;
  if (Id >= 0) {
    {
      std::lock_guard<std::mutex> L(EventsM);
      Events[static_cast<std::size_t>(Id)].T1 = T1;
    }
    OpenTop = Parent;
  }
  return Ms;
}

void e2e::recordSpan(const char *Name, double T0Us, double T1Us) {
  if (tracingEnabled())
    push({Name, T0Us, T1Us, OpenTop, 0, threadIndex()});
}

std::map<std::string, double> e2e::selfTimesMs(const std::string &Under) {
  std::vector<Event> Ev;
  {
    std::lock_guard<std::mutex> L(EventsM);
    Ev = Events;
  }
  std::vector<double> Children = childSums(Ev);
  std::map<std::string, double> Self;
  for (std::size_t I = 0; I < Ev.size(); ++I) {
    if (Ev[I].T1 < 0)
      continue;
    bool Inside = Under.empty();
    for (int64_t P = Ev[I].Parent; !Inside && P >= 0;
         P = Ev[static_cast<std::size_t>(P)].Parent)
      Inside = Under == Ev[static_cast<std::size_t>(P)].Name;
    if (Inside)
      Self[Ev[I].Name] += (Ev[I].T1 - Ev[I].T0 - Children[I]) / 1000.0;
  }
  return Self;
}

double e2e::childCoverage(const std::string &Root) {
  std::vector<Event> Ev;
  {
    std::lock_guard<std::mutex> L(EventsM);
    Ev = Events;
  }
  std::vector<double> Children = childSums(Ev);
  double Wall = 0, Covered = 0;
  for (std::size_t I = 0; I < Ev.size(); ++I)
    if (Ev[I].T1 >= 0 && Root == Ev[I].Name) {
      Wall += Ev[I].T1 - Ev[I].T0;
      Covered += Children[I];
    }
  return Wall > 0 ? Covered / Wall : 0.0;
}

bool e2e::writeChromeTrace(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(EventsM);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", F);
  for (std::size_t I = 0; I < Events.size(); ++I) {
    const Event &E = Events[I];
    double T1 = E.T1 >= 0 ? E.T1 : E.T0;
    std::fputs(I ? ",\n{\"name\":" : "\n{\"name\":", F);
    jsonString(F, E.Name);
    std::fprintf(F,
                 ",\"cat\":\"e2e\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%zu,\"parent\":%lld,"
                 "\"req\":%llu}}",
                 E.T0, T1 - E.T0, E.Tid, I, static_cast<long long>(E.Parent),
                 static_cast<unsigned long long>(E.Request));
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}
