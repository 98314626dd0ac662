//===- bench_e2e.cpp - The end-to-end ledger benchmark ---------------------===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
//   bench_e2e --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//             [--trace-file PATH] [--json PATH] [--smoke]
//   bench_e2e --native-probe          (exit 0 usable, 77 no native tier)
//
// One workload per process, so peak RSS and the process-wide caches belong
// to it. Workloads (README.md explains each choice):
//
//   mmm-1024   two-level MMM, B=64, N=1024: kernel-bound, no DAG edges
//   chol-768   right-looking Cholesky product-wr, B=64, N=768, SPD input:
//              dependence- and undo-bound, no GEMM routing
//
// A run lasts about --seconds, on one executor thread pinned to one CPU.
// The program is set up cold several times, spread over the window;
// between set-ups, warm runs of the plan alternate with runs of a
// hand-blocked baseline on the same input, each getting about half of the
// time. The host this benchmark was built on is
// a shared VM whose speed drifts by up to 2x over minutes, and the drift
// reaches the program and the baseline alike, so the gated speed metric is
// the ratio of their mean times, measured side by side. Raw times are
// printed beside it.
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// with spans recorded, which adds the per-layer decomposition and writes a
// Chrome trace. Every metric is printed as "name value unit"; the last line
// is one JSON object {correct, attempted, failed, metrics} holding the
// mode's metrics as BENCHMARK.json lists them.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"
#include "Reference.h"
#include "Trace.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

using namespace e2e;
using shackle::ProgramInstance;

namespace {

//===----------------------------------------------------------------------===//
// Metric schema (BENCHMARK.json lists the same names; smoke.py checks it).
//===----------------------------------------------------------------------===//

struct MetricDef {
  const char *Name;
  const char *Unit;
};

const MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"speedup_vs_baseline", "x"},
    {"peak_rss_mb", "MB"},
};

const MetricDef PerLayer[] = {
    {"frontend.build_ms", "ms"},
    {"core.legality_ms", "ms"},
    {"core.solver_queries", "count"},
    {"codegen.scan_ms", "ms"},
    {"codegen.nest_nodes", "count"},
    {"parallel.plan_ms", "ms"},
    {"parallel.partition_ms", "ms"},
    {"parallel.dag_ms", "ms"},
    {"parallel.tasks", "count"},
    {"parallel.dag_edges", "count"},
    {"parallel.critical_path", "count"},
    {"parallel.undo_capture_ms", "ms"},
    {"parallel.undo_entries", "count"},
    {"parallel.checksum_ms", "ms"},
    {"parallel.poison_scan_ms", "ms"},
    {"parallel.busy_frac", "frac"},
    {"parallel.oracle_rerun_frac", "frac"},
    {"native.emit_ms", "ms"},
    {"native.cc_ms", "ms"},
    {"native.load_ms", "ms"},
    {"native.cc_invocations", "count"},
    {"native.kernel_busy_ms", "ms"},
    {"native.gemm_routed", "count"},
    {"native.task_kernels", "count"},
    {"kernels.baseline_ms", "ms"},
    {"kernels.peak_gflops_core", "GFlop/s"},
    {"kernels.frac_of_peak", "frac"},
    {"kernels.flops", "count"},
    {"kernels.bytes_computed", "B"},
    {"trace.speedup_vs_baseline", "x"},
    {"trace.setup_coverage", "frac"},
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 50;
  bool Trace = false;
  bool Smoke = false;
  std::string TraceFile, JsonOut;
};

/// One invocation's outcome: every operation attempted, every failure, and
/// every metric measured.
struct Ledger {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Problems;
  std::map<std::string, std::pair<double, std::string>> Values;

  /// Counts one operation; a non-empty \p Problem makes it a failure.
  void op(const std::string &What, const std::string &Problem) {
    ++Attempted;
    if (Problem.empty())
      return;
    ++Failed;
    if (Problems.size() < 8)
      Problems.push_back(What + ": " + Problem);
  }
  void set(const std::string &Name, double Value, const char *Unit) {
    Values[Name] = {Value, Unit};
  }
};

/// Linear interpolation between closest ranks.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}
double median(const std::vector<double> &V) { return percentile(V, 0.5); }

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

unsigned nproc() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// One executor thread, and the whole process pinned to the CPU it started
/// on (see main), so the plan and the single-thread baseline share one
/// vCPU and every slowdown of it. This is the paper's comparison: one
/// processor, shackled code against hand-blocked code. On the 4-vCPU
/// reference machine, two unpinned threads made mmm-1024's ratio spread 8%
/// between runs of the same code, and three threads spread its raw times
/// by 25-45%.
constexpr unsigned Threads = 1;

/// Pins the process, and every thread and compiler process it starts
/// later, to the CPU it is running on.
void pinToCurrentCpu() {
  int Cpu = sched_getcpu();
  if (Cpu < 0)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

void load(ProgramInstance &Inst, const Buffers &B) {
  for (unsigned A = 0; A < B.size(); ++A)
    Inst.buffer(A) = B[A];
}

/// Empty when \p Got is within the reference bound of \p Want.
std::string checkArray(const std::vector<double> &Got,
                       const std::vector<double> &Want, unsigned A,
                       int64_t N) {
  double Err = relativeError(Got, Want);
  if (Err <= errorBound(N))
    return "";
  return "array " + std::to_string(A) + " off the reference by " +
         std::to_string(Err) + " (relative)";
}

std::string check(const ProgramInstance &Got, const Buffers &Want,
                  int64_t N) {
  for (unsigned A = 0; A < Want.size(); ++A)
    if (std::string P = checkArray(Got.buffer(A), Want[A], A, N); !P.empty())
      return P;
  return "";
}

std::string check(const Buffers &Got, const Buffers &Want, int64_t N) {
  for (unsigned A = 0; A < Want.size(); ++A)
    if (std::string P = checkArray(Got[A], Want[A], A, N); !P.empty())
      return P;
  return "";
}

/// The seeded, conditioned input of one program: the library's own
/// fillRandom draw, then made well-posed for the reference.
Buffers seededInput(const Compiled &C, Kind K, uint64_t Seed) {
  std::unique_ptr<ProgramInstance> Inst = newInstance(C);
  Inst->fillRandom(Seed, 0.5, 1.5);
  Buffers B;
  for (unsigned A = 0; A < C.Prog->getNumArrays(); ++A)
    B.push_back(Inst->buffer(A));
  condition(K, C.Plan->paramValues(), B);
  return B;
}

/// One run of the hand-blocked baseline on a copy of \p Input, under the
/// span "kernels.baseline". Returns the routine's time in ms; \p Out receives
/// the result.
double runBaseline(Kind K, const Job &J, const Buffers &Input, Buffers &Out) {
  Out = Input;
  Span S("kernels.baseline");
  return baseline(K, J.Params, Out);
}

//===----------------------------------------------------------------------===//
// The workload: cold set-ups spread over warm runs and baseline runs
//===----------------------------------------------------------------------===//

/// What a traced run gathers for the per-layer metrics.
struct Layers {
  uint64_t LegalityQueries = 0, NestNodes = 0, Tasks = 0, Edges = 0,
           CriticalPath = 0, CcInvocations = 0, GemmRouted = 0,
           TaskKernels = 0;
  uint64_t OracleReruns = 0, TaskCalls = 0;

  void addSetup(const SetupStats &S) {
    LegalityQueries += S.LegalityQueries;
    NestNodes += S.NestNodes;
    Tasks += S.Tasks;
    Edges += S.Edges;
    CriticalPath += S.CriticalPath;
    CcInvocations += S.Compiled ? 1 : 0;
    GemmRouted += S.GemmRouted;
    TaskKernels += S.TaskKernels;
  }
  void addRun(const shackle::ParallelRunStats &S) {
    OracleReruns += S.NativeOracleReruns;
    TaskCalls += S.NativeTaskCalls;
  }
};

/// The per-layer metrics. Set-up quantities are per cold set-up; run
/// quantities describe one execution.
void emitLayers(const Layers &Ly, unsigned Setups, const Decomposition &D,
                double RunP50, double BaselineP50, double Flops, double Bytes,
                double Speedup, Ledger &L) {
  std::map<std::string, double> Self = selfTimesMs("setup");
  auto perSetup = [&](const char *Span) { return Self[Span] / Setups; };
  auto perUnit = [&](uint64_t V) {
    return static_cast<double>(V) / Setups;
  };
  L.set("frontend.build_ms", perSetup("frontend"), "ms");
  L.set("core.legality_ms", perSetup("core.legality"), "ms");
  L.set("core.solver_queries", perUnit(Ly.LegalityQueries), "count");
  L.set("codegen.scan_ms", perSetup("codegen.scan"), "ms");
  L.set("codegen.nest_nodes", perUnit(Ly.NestNodes), "count");
  L.set("parallel.plan_ms", perSetup("parallel.plan"), "ms");
  L.set("parallel.partition_ms", perSetup("parallel.partition"), "ms");
  L.set("parallel.dag_ms", perSetup("parallel.dag"), "ms");
  L.set("parallel.tasks", perUnit(Ly.Tasks), "count");
  L.set("parallel.dag_edges", perUnit(Ly.Edges), "count");
  L.set("parallel.critical_path", perUnit(Ly.CriticalPath), "count");
  L.set("native.emit_ms", perSetup("native.emit"), "ms");
  L.set("native.cc_ms", perSetup("native.cc"), "ms");
  L.set("native.load_ms", perSetup("native.load"), "ms");
  L.set("native.cc_invocations", perUnit(Ly.CcInvocations), "count");
  L.set("native.gemm_routed", perUnit(Ly.GemmRouted), "count");
  L.set("native.task_kernels", perUnit(Ly.TaskKernels), "count");

  L.set("parallel.undo_capture_ms", D.UndoMs, "ms");
  L.set("parallel.undo_entries", static_cast<double>(D.UndoEntries), "count");
  L.set("parallel.checksum_ms", D.ChecksumMs, "ms");
  L.set("parallel.poison_scan_ms", D.PoisonMs, "ms");
  L.set("native.kernel_busy_ms", D.KernelMs, "ms");
  double Busy = D.UndoMs + D.ChecksumMs + D.KernelMs + D.PoisonMs;
  L.set("parallel.busy_frac", ratio(Busy / Threads, RunP50), "frac");
  L.set("parallel.oracle_rerun_frac",
        ratio(static_cast<double>(Ly.OracleReruns),
              static_cast<double>(Ly.TaskCalls)),
        "frac");

  double Peak = peakGflopsCore();
  L.set("kernels.baseline_ms", BaselineP50, "ms");
  L.set("kernels.peak_gflops_core", Peak, "GFlop/s");
  L.set("kernels.frac_of_peak", ratio(Flops, RunP50 * 1e6 * Peak * Threads),
        "frac");
  L.set("kernels.flops", Flops, "count");
  L.set("kernels.bytes_computed", Bytes, "B");

  L.set("trace.speedup_vs_baseline", Speedup, "x");
  L.set("trace.setup_coverage", childCoverage("setup"), "frac");
}

void runWorkload(const Job &J, Kind K, const Options &O, Ledger &L) {
  // An odd count, so the median is one set-up's own time.
  const unsigned Setups = O.Smoke ? 1 : 9;
  const int64_t N = J.Params[0];
  Layers Ly;
  Compiled C;
  Buffers Input, Want, Out;
  std::vector<double> SetupMs, TtrMs, RunMs, BaselineMs;
  double RunTotal = 0, BaselineTotal = 0;
  std::unique_ptr<ProgramInstance> Inst;
  const double StartUs = nowUs();
  for (unsigned I = 0; I < Setups; ++I) {
    // A cold set-up and its first run, then warm runs to the end of the
    // slot.
    clearNativeModules();
    double T0 = nowUs();
    C = setUp(J, {Threads, O.Trace});
    double Ms = (nowUs() - T0) / 1000;
    L.op("set-up", C.Problem);
    if (!C.Problem.empty())
      return;
    Ly.addSetup(C.Stats);
    if (Input.empty()) {
      // The expected result; this first baseline run warms it up and is
      // not a sample.
      Input = seededInput(C, K, O.Seed);
      runBaseline(K, J, Input, Want);
    }
    Inst = newInstance(C);
    load(*Inst, Input);
    RunOutcome First = run(C, *Inst, Threads);
    L.op("first run",
         First.Problem.empty() ? check(*Inst, Want, N) : First.Problem);
    SetupMs.push_back(Ms);
    TtrMs.push_back(Ms + First.Ms);

    // Whichever of the plan and the baseline has had less time so far runs
    // next, so both sample the same stretches of machine time.
    const double SlotEndUs = StartUs + O.Seconds * 1e6 * (I + 1) / Setups;
    while (nowUs() < SlotEndUs || RunMs.empty() || BaselineMs.empty()) {
      if (BaselineTotal < RunTotal) {
        double BMs = runBaseline(K, J, Input, Out);
        L.op("baseline run", check(Out, Want, N));
        BaselineMs.push_back(BMs);
        BaselineTotal += BMs;
        continue;
      }
      load(*Inst, Input);
      RunOutcome R = run(C, *Inst, Threads);
      L.op("warm run", R.Problem.empty() ? check(*Inst, Want, N) : R.Problem);
      RunMs.push_back(R.Ms);
      RunTotal += R.Ms;
      Ly.addRun(R.Stats);
    }
  }

  // The ratio of the two mean times. The interleave gives both sides the
  // same stretches of machine time, so a slow stretch weighs the same in
  // both means; medians of the two would discard different stretches. On
  // the reference machine, eight runs of mmm-1024 had a quartile spread of
  // 4% with means and 12% with medians.
  const double Speedup =
      ratio(BaselineTotal / static_cast<double>(BaselineMs.size()),
            RunTotal / static_cast<double>(RunMs.size()));
  const double Flops = usefulFlops(K, J.Params);
  const double RunP50 = median(RunMs), BaselineP50 = median(BaselineMs);
  L.set("setup_s", median(SetupMs) / 1000, "s");
  L.set("speedup_vs_baseline", Speedup, "x");
  // Raw times, printed but not gated: they follow the host's drift.
  L.set("setup_samples", static_cast<double>(SetupMs.size()), "count");
  L.set("time_to_result_s", median(TtrMs) / 1000, "s");
  L.set("lat_ms_p50", RunP50, "ms");
  L.set("lat_ms_p90", percentile(RunMs, 0.9), "ms");
  L.set("lat_ms_samples", static_cast<double>(RunMs.size()), "count");
  L.set("baseline_ms_p50", BaselineP50, "ms");
  L.set("baseline_samples", static_cast<double>(BaselineMs.size()), "count");
  L.set("gflops", Flops / (RunP50 * 1e6), "GFlop/s");
  if (!O.Trace)
    return;

  // The serial decomposition: every task's undo capture, checksum, kernel
  // and poison scan in partition order, then the same reference check.
  load(*Inst, Input);
  Decomposition D = decompose(C, *Inst);
  L.op("decomposition",
       D.Problem.empty() ? check(*Inst, Want, N) : D.Problem);
  emitLayers(Ly, Setups, D, RunP50, BaselineP50, Flops,
             compulsoryBytes(*Inst), Speedup, L);
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

std::string cpuModel() {
  std::ifstream F("/proc/cpuinfo");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("model name", 0) == 0)
      return Line.substr(Line.find(':') + 2);
  return "unknown";
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    Out += Ch;
  }
  return Out + "\"";
}

/// Every digit the measurement has.
std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(Value().c_str());
    else if (A == "--trace")
      O.Trace = Value() == "1";
    else if (A == "--trace-file")
      O.TraceFile = Value();
    else if (A == "--json")
      O.JsonOut = Value();
    else if (A == "--smoke")
      O.Smoke = true;
    else {
      std::fprintf(stderr, "bench_e2e: unknown argument '%s'\n", A.c_str());
      return false;
    }
  }
  return !O.Workload.empty() && O.Seconds > 0;
}

Job registryJob(const char *Bench, const char *Config, int64_t Block,
                int64_t N) {
  return {Bench, Config, Block, {N}};
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && std::strcmp(Argv[1], "--native-probe") == 0)
    return nativeAvailable() ? 0 : 77;
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload mmm-1024|chol-768 [--seed S] "
                 "[--seconds T] [--trace 0|1] [--trace-file PATH] "
                 "[--json PATH] [--smoke]\n");
    return 2;
  }
  const int64_t Scale = O.Smoke ? 8 : 1;
  Job J;
  Kind K;
  if (O.Workload == "mmm-1024") {
    J = registryJob("matmul", "two-level", 64, 1024 / Scale);
    K = Kind::MatMul;
  } else if (O.Workload == "chol-768") {
    J = registryJob("cholesky-right", "product-wr", 64, 768 / Scale);
    K = Kind::CholeskyRight;
  } else {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  if (!nativeAvailable()) {
    std::fprintf(stderr, "bench_e2e: the native tier cannot compile here\n");
    return 77;
  }
  mkdir(".bench_build", 0755);
  if (O.Trace)
    enableTracing();

  // run.sh exports the checkout's commit at every run, so the record names
  // the code that ran even when the build tree outlives a checkout.
  const char *Commit = std::getenv("SHACKLE_E2E_COMMIT");
  const std::string Machine =
      "nproc=" + std::to_string(nproc()) +
      " threads=" + std::to_string(Threads) + " cpu=\"" +
      cpuModel() + "\" compiler=\"" +
#ifdef __clang__
      "clang " +
#else
      "gcc " +
#endif
      __VERSION__ + "\" build=" SHACKLE_E2E_BUILD_TYPE " commit=" +
      (Commit && *Commit ? Commit : "unknown");
  std::printf("machine %s\n", Machine.c_str());
  pinToCurrentCpu();
  std::printf("workload %s seed=%" PRIu64 " seconds=%g trace=%d smoke=%d\n",
              O.Workload.c_str(), O.Seed, O.Seconds, O.Trace, O.Smoke);
  std::fflush(stdout);

  Ledger L;
  runWorkload(J, K, O, L);
  L.set("peak_rss_mb", peakRssMb(), "MB");

  if (O.Trace) {
    std::string Path =
        O.TraceFile.empty()
            ? ".bench_build/bench_e2e-" + O.Workload + ".trace.json"
            : O.TraceFile;
    if (writeChromeTrace(Path))
      std::printf("trace %s\n", Path.c_str());
    else
      L.op("trace write", "cannot write " + Path);
  }

  for (const auto &[Name, VU] : L.Values)
    std::printf("%s %s %s\n", Name.c_str(), number(VU.first).c_str(),
                VU.second.c_str());
  for (const std::string &P : L.Problems)
    std::printf("problem %s\n", P.c_str());

  std::string Metrics;
  bool Complete = true;
  auto Emit = [&](const MetricDef &M) {
    auto It = L.Values.find(M.Name);
    if (It == L.Values.end() || !std::isfinite(It->second.first)) {
      Complete = false;
      return;
    }
    Metrics += std::string(Metrics.empty() ? "" : ", ") + "\"" + M.Name +
               "\": {\"value\": " + number(It->second.first) +
               ", \"unit\": \"" + M.Unit + "\"}";
  };
  if (O.Trace)
    std::for_each(std::begin(PerLayer), std::end(PerLayer), Emit);
  else
    std::for_each(std::begin(EndToEnd), std::end(EndToEnd), Emit);
  const bool Correct = Complete && L.Failed == 0 && L.Attempted > 0;

  if (!O.JsonOut.empty()) {
    std::ofstream F(O.JsonOut);
    F << "{\"workload\": " << jsonString(O.Workload) << ", \"seed\": " << O.Seed
      << ", \"seconds\": " << O.Seconds << ", \"trace\": " << O.Trace
      << ", \"machine\": " << jsonString(Machine)
      << ", \"correct\": " << (Correct ? "true" : "false")
      << ", \"attempted\": " << L.Attempted << ", \"failed\": " << L.Failed
      << ", \"metrics\": {";
    const char *Sep = "";
    for (const auto &[Name, VU] : L.Values) {
      F << Sep << jsonString(Name) << ": {\"value\": " << number(VU.first)
        << ", \"unit\": " << jsonString(VU.second) << "}";
      Sep = ", ";
    }
    F << "}}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              Correct ? "true" : "false", L.Attempted, L.Failed,
              Metrics.c_str());
  return 0;
}
