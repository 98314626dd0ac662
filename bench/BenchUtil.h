//===- BenchUtil.h - Shared benchmark harness utilities ---------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure-reproduction benchmarks: deterministic
/// input generation, pristine/working array pairs (factorizations destroy
/// their input, so every timed iteration starts from a fresh copy), a
/// google-benchmark runner that reports MFlop/s the way the paper's graphs
/// do, and a machine-readable results sink: every benchmark built on
/// SHACKLE_BENCH_MAIN() accepts `--json out.json` and appends one record
/// {name, n, block, threads, ns_per_iter} per benchmark run, so sweep
/// scripts can diff configurations without scraping console output.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_BENCH_BENCHUTIL_H
#define SHACKLE_BENCH_BENCHUTIL_H

extern "C" {
#include "shackle_kernels.gen.h"
}

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace shackle_bench {

/// SplitMix64-based deterministic fill in [Lo, Hi].
inline void fillRandom(std::vector<double> &Buf, uint64_t Seed, double Lo,
                       double Hi) {
  uint64_t X = Seed ? Seed : 0x9e3779b97f4a7c15ULL;
  for (double &V : Buf) {
    X += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    Z ^= Z >> 31;
    V = Lo + (Hi - Lo) * (static_cast<double>(Z >> 11) * 0x1.0p-53);
  }
}

/// Boosts the diagonal of a dense row-major matrix (SPD / diagonally
/// dominant inputs for factorizations).
inline void boostDiagonal(std::vector<double> &A, int64_t N, double Boost) {
  for (int64_t I = 0; I < N; ++I)
    A[I * N + I] += Boost;
}

/// Boosts the diagonal in LAPACK band storage.
inline void boostBandDiagonal(std::vector<double> &Ab, int64_t N, int64_t BW,
                              double Boost) {
  for (int64_t J = 0; J < N; ++J)
    Ab[J * (BW + 1)] += Boost;
}

/// Pristine inputs plus working copies handed to kernels.
class Workspace {
public:
  /// Adds an array of \p Count doubles filled from \p Seed; returns its id.
  unsigned addArray(size_t Count, uint64_t Seed, double Lo = 0.5,
                    double Hi = 1.5) {
    Init.emplace_back(Count);
    fillRandom(Init.back(), Seed, Lo, Hi);
    Work.emplace_back(Count);
    return Init.size() - 1;
  }

  std::vector<double> &init(unsigned Id) { return Init[Id]; }

  void setParams(std::vector<int64_t> P) { Params = std::move(P); }
  const int64_t *params() const { return Params.data(); }

  /// Restores every working array from its pristine copy.
  void reset() {
    for (size_t I = 0; I < Init.size(); ++I)
      std::memcpy(Work[I].data(), Init[I].data(),
                  Init[I].size() * sizeof(double));
    Ptrs.clear();
    for (std::vector<double> &B : Work)
      Ptrs.push_back(B.data());
  }

  double **arrays() { return Ptrs.data(); }
  std::vector<double> &work(unsigned Id) { return Work[Id]; }

private:
  std::vector<std::vector<double>> Init, Work;
  std::vector<double *> Ptrs;
  std::vector<int64_t> Params;
};

/// Times a generated kernel, reporting MFlop/s. \p Flops is the useful work
/// per invocation.
inline void runGenKernel(benchmark::State &St, const char *Name,
                         Workspace &WS, double Flops) {
  shackle_kernel_fn Fn = shackle_gen_lookup(Name);
  if (!Fn) {
    St.SkipWithError("kernel not found");
    return;
  }
  for (auto _ : St) {
    St.PauseTiming();
    WS.reset();
    St.ResumeTiming();
    Fn(WS.arrays(), WS.params());
    benchmark::ClobberMemory();
  }
  St.counters["MFlop/s"] = benchmark::Counter(
      Flops * 1e-6, benchmark::Counter::kIsIterationInvariantRate);
}

/// Times a hand-written kernel (lambda taking the Workspace), reporting
/// MFlop/s.
template <typename Fn>
inline void runHandKernel(benchmark::State &St, Fn &&Body, Workspace &WS,
                          double Flops) {
  for (auto _ : St) {
    St.PauseTiming();
    WS.reset();
    St.ResumeTiming();
    Body(WS);
    benchmark::ClobberMemory();
  }
  St.counters["MFlop/s"] = benchmark::Counter(
      Flops * 1e-6, benchmark::Counter::kIsIterationInvariantRate);
}

//===----------------------------------------------------------------------===//
// Machine-readable results (--json out.json)
//===----------------------------------------------------------------------===//

/// Tags a benchmark run with the sweep coordinates the JSON records carry.
/// Pass 0 for axes that do not apply (they are emitted as 0).
inline void setBenchMeta(benchmark::State &St, int64_t N, int64_t Block,
                         int64_t Threads = 1) {
  St.counters["n"] = benchmark::Counter(static_cast<double>(N));
  St.counters["block"] = benchmark::Counter(static_cast<double>(Block));
  St.counters["threads"] = benchmark::Counter(static_cast<double>(Threads));
}

/// Tags a service benchmark with the plan-cache counters behind the run
/// (docs/SERVE.md): cache hits/misses, single-flight coalesces, and Omega
/// queries avoided through cached verdicts, plus the measured request
/// throughput. The JSON sink emits these per record so cold-vs-warm and
/// client-scaling sweeps diff from the output alone.
inline void setServiceStats(benchmark::State &St, double Hits, double Misses,
                            double Coalesced, double SolverSaved,
                            double ReqPerS) {
  St.counters["hits"] = benchmark::Counter(Hits);
  St.counters["misses"] = benchmark::Counter(Misses);
  St.counters["coalesced"] = benchmark::Counter(Coalesced);
  St.counters["solver_saved"] = benchmark::Counter(SolverSaved);
  St.counters["req_per_s"] = benchmark::Counter(ReqPerS);
}

/// Tags a saturation benchmark with the admission-control telemetry behind
/// one offered-load point (DESIGN.md §14): requests shed with `overloaded`,
/// requests whose deadline expired, the p95 latency over *accepted*
/// requests only (shed replies return in microseconds and would flatter the
/// tail), and goodput — ok replies per second, the number that stays flat
/// past the knee when load shedding works.
inline void setSaturationStats(benchmark::State &St, double Shed,
                               double DeadlineExpired, double AcceptedP95Us,
                               double GoodputReqS) {
  St.counters["shed"] = benchmark::Counter(Shed);
  St.counters["deadline_expired"] = benchmark::Counter(DeadlineExpired);
  St.counters["accepted_p95_us"] = benchmark::Counter(AcceptedP95Us);
  St.counters["goodput_req_s"] = benchmark::Counter(GoodputReqS);
}

/// Tags a benchmark with measured hardware counters from a PerfCounterSet
/// sample (support/PerfCounters.h). Call only when the sample is Available;
/// records without it emit 0 for every hw_ field, which the sweep scripts
/// read as "perf_event_open unavailable on this machine".
inline void setHwCounterStats(benchmark::State &St, double Cycles,
                              double Instructions, double HwL1Misses,
                              double HwL2Misses, double HwLlcMisses) {
  St.counters["cycles"] = benchmark::Counter(Cycles);
  St.counters["instructions"] = benchmark::Counter(Instructions);
  St.counters["hw_l1_misses"] = benchmark::Counter(HwL1Misses);
  St.counters["hw_l2_misses"] = benchmark::Counter(HwL2Misses);
  St.counters["hw_llc_misses"] = benchmark::Counter(HwLlcMisses);
}

/// Tags a benchmark with the CacheSim predictions next to which the hw_
/// counters are reported, plus the two derived figures of merit:
/// measured/simulated L2 misses (how well the paper's stack-distance model
/// tracks the real part) and the Elango et al. red-blue-pebble I/O lower
/// bound divided by the measured misses (how close the blocking gets to
/// communication-optimal; 1.0 = at the bound). Pass 0 for ratios that
/// cannot be formed (counters unavailable).
inline void setSimMissStats(benchmark::State &St, double SimL1Misses,
                            double SimL2Misses, double MissRatioVsSim,
                            double FracOfIoLowerBound) {
  St.counters["sim_l1_misses"] = benchmark::Counter(SimL1Misses);
  St.counters["sim_l2_misses"] = benchmark::Counter(SimL2Misses);
  St.counters["miss_ratio_vs_sim"] = benchmark::Counter(MissRatioVsSim);
  St.counters["frac_of_io_lower_bound"] =
      benchmark::Counter(FracOfIoLowerBound);
}

/// The CPU this process was pinned to via --pin-cpu (-1 = unpinned).
/// Recorded in every JSON record so sweep results carry their affinity.
inline int &pinnedCpu() {
  static int Cpu = -1;
  return Cpu;
}

/// A ConsoleReporter that also collects one record per completed run, for
/// the --json flag. Aggregates (mean/median of repetitions) are skipped;
/// each raw run is one record.
class JsonTeeReporter : public benchmark::ConsoleReporter {
public:
  struct Record {
    std::string Name;
    int64_t N = 0, Block = 0, Threads = 0;
    double NsPerIter = 0.0;
    /// Plan-cache service telemetry (0 unless set via setServiceStats).
    int64_t Hits = 0, Misses = 0, Coalesced = 0, SolverSaved = 0;
    double ReqPerS = 0.0;
    /// Admission-control telemetry (0 unless set via setSaturationStats).
    int64_t Shed = 0, DeadlineExpired = 0;
    double AcceptedP95Us = 0.0, GoodputReqS = 0.0;
    /// Hardware counters (0 unless set via setHwCounterStats — also 0 when
    /// perf_event_open is unavailable on the machine).
    int64_t Cycles = 0, Instructions = 0;
    int64_t HwL1Misses = 0, HwL2Misses = 0, HwLlcMisses = 0;
    /// CacheSim predictions + derived ratios (setSimMissStats).
    int64_t SimL1Misses = 0, SimL2Misses = 0;
    double MissRatioVsSim = 0.0, FracOfIoLowerBound = 0.0;
    /// Process CPU affinity (--pin-cpu; -1 = unpinned).
    int64_t PinnedCpu = -1;
  };
  std::vector<Record> Records;

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      if (R.error_occurred || R.run_type != Run::RT_Iteration ||
          R.iterations == 0)
        continue;
      Record Rec;
      Rec.Name = R.benchmark_name();
      auto Counter = [&R](const char *Key) -> int64_t {
        auto It = R.counters.find(Key);
        return It == R.counters.end()
                   ? 0
                   : static_cast<int64_t>(It->second.value);
      };
      Rec.N = Counter("n");
      Rec.Block = Counter("block");
      Rec.Threads = Counter("threads");
      Rec.Hits = Counter("hits");
      Rec.Misses = Counter("misses");
      Rec.Coalesced = Counter("coalesced");
      Rec.SolverSaved = Counter("solver_saved");
      {
        auto It = R.counters.find("req_per_s");
        Rec.ReqPerS = It == R.counters.end() ? 0.0 : It->second.value;
      }
      Rec.Shed = Counter("shed");
      Rec.DeadlineExpired = Counter("deadline_expired");
      {
        auto It = R.counters.find("accepted_p95_us");
        Rec.AcceptedP95Us = It == R.counters.end() ? 0.0 : It->second.value;
      }
      {
        auto It = R.counters.find("goodput_req_s");
        Rec.GoodputReqS = It == R.counters.end() ? 0.0 : It->second.value;
      }
      auto FloatCounter = [&R](const char *Key) -> double {
        auto It = R.counters.find(Key);
        return It == R.counters.end() ? 0.0 : It->second.value;
      };
      Rec.Cycles = Counter("cycles");
      Rec.Instructions = Counter("instructions");
      Rec.HwL1Misses = Counter("hw_l1_misses");
      Rec.HwL2Misses = Counter("hw_l2_misses");
      Rec.HwLlcMisses = Counter("hw_llc_misses");
      Rec.SimL1Misses = Counter("sim_l1_misses");
      Rec.SimL2Misses = Counter("sim_l2_misses");
      Rec.MissRatioVsSim = FloatCounter("miss_ratio_vs_sim");
      Rec.FracOfIoLowerBound = FloatCounter("frac_of_io_lower_bound");
      Rec.PinnedCpu = pinnedCpu();
      Rec.NsPerIter = R.real_accumulated_time /
                      static_cast<double>(R.iterations) * 1e9;
      Records.push_back(std::move(Rec));
    }
    benchmark::ConsoleReporter::ReportRuns(Runs);
  }
};

/// Escapes a string for embedding in a JSON literal.
inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

inline bool writeJsonRecords(const char *Path,
                             const std::vector<JsonTeeReporter::Record> &Rs) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F)
    return false;
  std::fprintf(F, "[\n");
  for (size_t I = 0; I < Rs.size(); ++I)
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"n\": %lld, \"block\": %lld, "
                 "\"threads\": %lld, \"ns_per_iter\": %.3f, "
                 "\"hits\": %lld, \"misses\": %lld, \"coalesced\": %lld, "
                 "\"solver_saved\": %lld, \"req_per_s\": %.1f, "
                 "\"shed\": %lld, \"deadline_expired\": %lld, "
                 "\"accepted_p95_us\": %.1f, \"goodput_req_s\": %.1f, "
                 "\"cycles\": %lld, \"instructions\": %lld, "
                 "\"hw_l1_misses\": %lld, \"hw_l2_misses\": %lld, "
                 "\"hw_llc_misses\": %lld, "
                 "\"sim_l1_misses\": %lld, \"sim_l2_misses\": %lld, "
                 "\"miss_ratio_vs_sim\": %.3f, "
                 "\"frac_of_io_lower_bound\": %.3f, "
                 "\"pinned_cpu\": %lld}%s\n",
                 jsonEscape(Rs[I].Name).c_str(),
                 static_cast<long long>(Rs[I].N),
                 static_cast<long long>(Rs[I].Block),
                 static_cast<long long>(Rs[I].Threads), Rs[I].NsPerIter,
                 static_cast<long long>(Rs[I].Hits),
                 static_cast<long long>(Rs[I].Misses),
                 static_cast<long long>(Rs[I].Coalesced),
                 static_cast<long long>(Rs[I].SolverSaved), Rs[I].ReqPerS,
                 static_cast<long long>(Rs[I].Shed),
                 static_cast<long long>(Rs[I].DeadlineExpired),
                 Rs[I].AcceptedP95Us, Rs[I].GoodputReqS,
                 static_cast<long long>(Rs[I].Cycles),
                 static_cast<long long>(Rs[I].Instructions),
                 static_cast<long long>(Rs[I].HwL1Misses),
                 static_cast<long long>(Rs[I].HwL2Misses),
                 static_cast<long long>(Rs[I].HwLlcMisses),
                 static_cast<long long>(Rs[I].SimL1Misses),
                 static_cast<long long>(Rs[I].SimL2Misses),
                 Rs[I].MissRatioVsSim, Rs[I].FracOfIoLowerBound,
                 static_cast<long long>(Rs[I].PinnedCpu),
                 I + 1 < Rs.size() ? "," : "");
  std::fprintf(F, "]\n");
  std::fclose(F);
  return true;
}

/// Pins the calling process to \p Cpu (sched_setaffinity). Returns false
/// when pinning is unsupported or refused; the benchmark still runs, just
/// unpinned, and the JSON records say so (pinned_cpu: -1).
inline bool pinProcessToCpu(int Cpu) {
#if defined(__linux__)
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  if (sched_setaffinity(0, sizeof(Set), &Set) != 0)
    return false;
  pinnedCpu() = Cpu;
  return true;
#else
  (void)Cpu;
  return false;
#endif
}

/// main() body behind SHACKLE_BENCH_MAIN(): peels `--json out.json` (or
/// `--json=out.json`) and `--pin-cpu N` (or `--pin-cpu=N`) off the command
/// line, forwards everything else to google-benchmark, and writes the
/// collected records on exit. Pinning happens before any benchmark runs so
/// hardware-counter measurements are not smeared across migrations.
inline int benchMain(int Argc, char **Argv) {
  std::string JsonPath, PinArg;
  std::vector<char *> Args;
  for (int I = 0; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc) {
      JsonPath = Argv[++I];
      continue;
    }
    if (std::strncmp(Argv[I], "--json=", 7) == 0) {
      JsonPath = Argv[I] + 7;
      continue;
    }
    if (std::strcmp(Argv[I], "--pin-cpu") == 0 && I + 1 < Argc) {
      PinArg = Argv[++I];
      continue;
    }
    if (std::strncmp(Argv[I], "--pin-cpu=", 10) == 0) {
      PinArg = Argv[I] + 10;
      continue;
    }
    Args.push_back(Argv[I]);
  }
  if (!PinArg.empty()) {
    int Cpu = std::atoi(PinArg.c_str());
    if (!pinProcessToCpu(Cpu))
      std::fprintf(stderr, "warning: could not pin to cpu %d; continuing "
                           "unpinned\n", Cpu);
  }
  int NArgs = static_cast<int>(Args.size());
  benchmark::Initialize(&NArgs, Args.data());
  if (benchmark::ReportUnrecognizedArguments(NArgs, Args.data()))
    return 1;
  JsonTeeReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  if (!JsonPath.empty() &&
      !writeJsonRecords(JsonPath.c_str(), Reporter.Records)) {
    std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  return 0;
}

} // namespace shackle_bench

/// Drop-in replacement for BENCHMARK_MAIN() adding the --json flag.
#define SHACKLE_BENCH_MAIN()                                                   \
  int main(int argc, char **argv) {                                            \
    return shackle_bench::benchMain(argc, argv);                               \
  }

#endif // SHACKLE_BENCH_BENCHUTIL_H
