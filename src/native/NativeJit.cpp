//===- NativeJit.cpp - Compile-and-load tier for block kernels ---------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "native/NativeJit.h"

#include "emitc/EmitC.h"
#include "kernels/MicroBlas.h"
#include "support/FaultInjector.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include <dlfcn.h>
#include <unistd.h>

using namespace shackle;

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

std::string tempDirTemplate() {
  const char *Base = std::getenv("TMPDIR");
  std::string Dir = (Base && *Base) ? Base : "/tmp";
  if (Dir.back() == '/')
    Dir.pop_back();
  return Dir + "/shackle-native-XXXXXX";
}

/// First ~12 lines of the compiler log, for the fallback diagnostic.
std::string readLogHead(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return "";
  std::string Out, Line;
  for (int I = 0; I < 12 && std::getline(In, Line); ++I) {
    if (!Out.empty())
      Out += "\n    ";
    Out += Line;
  }
  return Out;
}

Diagnostic fallbackDiag(std::string Why) {
  Diagnostic D(DiagCode::NativeFallback,
               "native tier unavailable: " + std::move(Why) +
                   "; running on the interpreter tier",
               {}, Severity::Warning);
  D.addNote("results are unaffected, only speed");
  return D;
}

uint64_t fnv1a(uint64_t H, const void *Data, std::size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

uint64_t fnv1a(uint64_t H, const std::string &S) {
  return fnv1a(H, S.data(), S.size());
}

/// The one command that compiles a module (and the availability probe):
/// \p Src into the shared object \p So, compiler output to \p Log.
/// -ffp-contract=off pins the emitted arithmetic to the interpreter's
/// multiply-then-add order (no FMA contraction), the precondition for the
/// bitwise half of the differential oracle. -fopenmp-simd honours the
/// emitter's `omp simd` marks (emitc/SimdMark.h) without linking an OpenMP
/// runtime; with no reduction clause a lane does the scalar operations. The
/// arch flags match the resolved vector level: they widen codegen without
/// touching the bitwise contract, since FMA only enters through the
/// hooks->gemm routing, which is behind the ULP policy.
std::string compileCommand(const NativeJitOptions &Opts, SimdLevel Simd,
                           const std::string &Src, const std::string &So,
                           const std::string &Log) {
  std::string Cmd = "'";
  Cmd += nativeCompilerPath(Opts);
  Cmd += "' -std=c++17 -O2 -fPIC -shared -ffp-contract=off -fopenmp-simd";
  if (Simd == SimdLevel::Avx2)
    Cmd += " -mavx2 -mfma";
  else if (Simd == SimdLevel::Avx512)
    Cmd += " -mavx512f -mavx512vl -mavx2 -mfma";
  if (!Opts.ExtraFlags.empty())
    Cmd += " " + Opts.ExtraFlags;
  return Cmd + " -o '" + So + "' '" + Src + "' > '" + Log + "' 2>&1";
}

} // namespace

std::string shackle::nativeCompilerPath(const NativeJitOptions &Opts) {
  if (!Opts.Compiler.empty())
    return Opts.Compiler;
  if (const char *Env = std::getenv("SHACKLE_NATIVE_CXX"); Env && *Env)
    return Env;
#ifdef SHACKLE_NATIVE_CXX_DEFAULT
  return SHACKLE_NATIVE_CXX_DEFAULT;
#else
  return "c++";
#endif
}

uint64_t shackle::nativeConfigHash(const NativeJitOptions &Opts) {
  uint64_t H = 1469598103934665603ull;
  H = fnv1a(H, nativeCompilerPath(Opts));
  H = fnv1a(H, Opts.ExtraFlags);
  unsigned char MB = Opts.UseMicroBlas ? 1 : 0;
  H = fnv1a(H, &MB, 1);
  // The *resolved* vector level, not the requested mode: two requests that
  // resolve to the same kernels (e.g. auto and avx2 on an AVX2-only part)
  // may share a module; an env-forced SHACKLE_NATIVE_SIMD change may not.
  unsigned char SL = static_cast<unsigned char>(resolveSimdLevel(Opts.Simd));
  H = fnv1a(H, &SL, 1);
  return H;
}

void NativeModule::cleanupFiles() {
  if (Handle) {
    dlclose(Handle);
    Handle = nullptr;
  }
  if (Keep || Dir.empty())
    return;
  if (!SrcPath.empty())
    std::remove(SrcPath.c_str());
  if (!SoPath.empty())
    std::remove(SoPath.c_str());
  if (!LogPath.empty())
    std::remove(LogPath.c_str());
  rmdir(Dir.c_str());
}

NativeModule::~NativeModule() { cleanupFiles(); }

NativeKernelFn NativeModule::taskFnFor(uint32_t TaskId) const {
  return TaskId < TaskFns.size() ? TaskFns[TaskId] : nullptr;
}

std::shared_ptr<NativeModule>
NativeModule::compile(const LoopNest &Nest, const BlockPartition &Part,
                      const NativeJitOptions &Opts,
                      std::vector<Diagnostic> &Diags) {
  // Build the worklist: one kernel per distinct segment-root *sequence*
  // (the per-segment DimValues are runtime data, so tasks replaying the
  // same subtrees in the same order share one function — the dedup is what
  // keeps the TU small).
  std::vector<NativeTaskKernelSpec> Specs;
  std::vector<int64_t> SpecIdx(Part.OK ? Part.Tasks.size() : 0, -1);
  {
    std::map<std::vector<const ASTNode *>, std::size_t> BySeq;
    for (std::size_t T = 0; T < SpecIdx.size(); ++T) {
      std::vector<const ASTNode *> Seq;
      Seq.reserve(Part.Tasks[T].Segments.size());
      for (const BlockTask::Segment &Seg : Part.Tasks[T].Segments)
        Seq.push_back(Seg.Node);
      if (Seq.empty())
        continue;
      auto It = BySeq.find(Seq);
      if (It == BySeq.end()) {
        It = BySeq.emplace(Seq, Specs.size()).first;
        Specs.push_back({"shk_native_t" + std::to_string(Specs.size()),
                         &Nest, std::move(Seq)});
      }
      SpecIdx[T] = static_cast<int64_t>(It->second);
    }
  }
  if (Specs.empty()) {
    Diags.push_back(fallbackDiag("plan has no task segments to compile"));
    return nullptr;
  }

  std::shared_ptr<NativeModule> M(new NativeModule());
  M->Keep = Opts.KeepArtifacts;

  // Resolve the vector level once: it picks both the host-side hooks->gemm
  // kernel and the -m arch flags the module is compiled with. The emitted
  // plain loops stay -ffp-contract=off, so wider codegen never changes the
  // bitwise contract of the loop branch.
  const SimdLevel Simd = resolveSimdLevel(Opts.Simd);
  M->Stats.SimdUsed = Opts.UseMicroBlas ? Simd : SimdLevel::Scalar;

  // 1. Emit the translation unit.
  auto T0 = std::chrono::steady_clock::now();
  NativeEmitOptions EOpts;
  EOpts.GemmHooks = Opts.UseMicroBlas;
  NativeEmitStats Emitted;
  const std::string Text = emitNativeTranslationUnit(Specs, EOpts, &Emitted);
  M->Stats.EmitMs = msSince(T0);
  M->Stats.GemmRouted = Emitted.GemmRouted;
  M->Stats.Reordered = Emitted.Reordered;
  M->Stats.SimdLoops = Emitted.SimdLoops;
  M->Stats.TaskKernels = static_cast<unsigned>(Specs.size());

  // 2. Write it to a fresh temp dir.
  std::string Templ = tempDirTemplate();
  std::vector<char> Buf(Templ.begin(), Templ.end());
  Buf.push_back('\0');
  if (!mkdtemp(Buf.data())) {
    Diags.push_back(fallbackDiag("mkdtemp failed for " + Templ));
    return nullptr;
  }
  M->Dir = Buf.data();
  M->SrcPath = M->Dir + "/kernels.cpp";
  M->SoPath = M->Dir + "/kernels.so";
  M->LogPath = M->Dir + "/cc.log";
  {
    std::ofstream Out(M->SrcPath);
    Out << Text;
    if (!Out) {
      Diags.push_back(fallbackDiag("could not write " + M->SrcPath));
      return nullptr;
    }
  }

  // 3. Invoke the compiler.
  T0 = std::chrono::steady_clock::now();
  const std::string Cmd =
      compileCommand(Opts, Simd, M->SrcPath, M->SoPath, M->LogPath);
  bool CompiledOk;
  if (injectNativeCompileFail()) {
    // The chaos hook models the compiler crashing or miscompiling: same
    // failure path as a real non-zero exit, no subprocess spent.
    CompiledOk = false;
    std::ofstream(M->LogPath) << "injected cc failure (fault injector)\n";
  } else {
    CompiledOk = std::system(Cmd.c_str()) == 0;
  }
  M->Stats.CompileMs = msSince(T0);
  if (!CompiledOk) {
    std::string Log = readLogHead(M->LogPath);
    Diagnostic D =
        fallbackDiag("compiler '" + nativeCompilerPath(Opts) + "' failed");
    if (!Log.empty())
      D.addNote("compiler output: " + Log);
    Diags.push_back(std::move(D));
    return nullptr;
  }

  // 4. Load and resolve. RTLD_LOCAL keeps the module's symbols out of the
  // global namespace — two cached modules can both define shk_native_t0.
  T0 = std::chrono::steady_clock::now();
  M->Handle = dlopen(M->SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!M->Handle) {
    const char *E = dlerror();
    Diags.push_back(
        fallbackDiag(std::string("dlopen failed: ") + (E ? E : "?")));
    return nullptr;
  }
  using AbiFn = int64_t (*)();
  if (auto Abi = reinterpret_cast<AbiFn>(
          dlsym(M->Handle, "shackle_native_abi_version"))) {
    if (int64_t V = Abi(); V != 1) {
      Diags.push_back(fallbackDiag("module ABI version " +
                                   std::to_string(V) + ", host expects 1"));
      return nullptr;
    }
  } else {
    Diags.push_back(fallbackDiag("module has no shackle_native_abi_version"));
    return nullptr;
  }
  std::vector<NativeKernelFn> Fns(Specs.size(), nullptr);
  for (std::size_t I = 0; I < Specs.size(); ++I) {
    std::string Sym = Specs[I].Name;
    if (injectNativeDlsymFail())
      Sym = "bad_" + Sym; // models a stale/misnamed symbol table
    void *P = dlsym(M->Handle, Sym.c_str());
    if (!P) {
      Diags.push_back(fallbackDiag("dlsym(" + Sym + ") failed"));
      return nullptr;
    }
    Fns[I] = reinterpret_cast<NativeKernelFn>(P);
  }
  M->TaskFns.assign(SpecIdx.size(), nullptr);
  for (std::size_t T = 0; T < SpecIdx.size(); ++T)
    if (SpecIdx[T] >= 0)
      M->TaskFns[T] = Fns[static_cast<std::size_t>(SpecIdx[T])];
  M->Stats.LoadMs = msSince(T0);

  // The selected kernel's signature IS the hook ABI; no wrapper needed.
  // Scalar -> microGemm, wider levels -> the SimdGemm register tiles.
  if (Opts.UseMicroBlas)
    M->Hooks.Gemm = selectGemmKernel(Simd);
  return M;
}

bool shackle::nativeTierAvailable(const NativeJitOptions &Opts) {
  // One probe per resolved compiler, flags and vector level per process; the
  // probe compiles and loads a trivial TU with the command compile() uses.
  static std::mutex ProbeM;
  static std::unordered_map<std::string, bool> Verdicts;
  const SimdLevel Simd = resolveSimdLevel(Opts.Simd);
  const std::string Key = nativeCompilerPath(Opts) + "\x1f" +
                          Opts.ExtraFlags + "\x1f" + simdLevelName(Simd);
  std::lock_guard<std::mutex> L(ProbeM);
  if (auto It = Verdicts.find(Key); It != Verdicts.end())
    return It->second;

  bool OK = false;
  std::string Templ = tempDirTemplate();
  std::vector<char> Buf(Templ.begin(), Templ.end());
  Buf.push_back('\0');
  if (mkdtemp(Buf.data())) {
    std::string Dir = Buf.data();
    std::string Src = Dir + "/probe.cpp", So = Dir + "/probe.so",
                Log = Dir + "/cc.log";
    { std::ofstream(Src) << "extern \"C\" long shk_probe() {return 42;}\n"; }
    if (std::system(compileCommand(Opts, Simd, Src, So, Log).c_str()) == 0) {
      if (void *H = dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL)) {
        using ProbeFn = long (*)();
        auto F = reinterpret_cast<ProbeFn>(dlsym(H, "shk_probe"));
        OK = F && F() == 42;
        dlclose(H);
      }
    }
    std::remove(Src.c_str());
    std::remove(So.c_str());
    std::remove(Log.c_str());
    rmdir(Dir.c_str());
  }
  Verdicts.emplace(Key, OK);
  return OK;
}

NativeModuleCache &NativeModuleCache::instance() {
  static NativeModuleCache C;
  return C;
}

std::shared_ptr<NativeModule> NativeModuleCache::lookup(uint64_t Key) const {
  std::lock_guard<std::mutex> L(M);
  auto It = Map.find(Key);
  return It == Map.end() ? nullptr : It->second;
}

void NativeModuleCache::insert(uint64_t Key, std::shared_ptr<NativeModule> Mod) {
  if (!Mod)
    return;
  std::lock_guard<std::mutex> L(M);
  Map[Key] = std::move(Mod);
}

std::size_t NativeModuleCache::size() const {
  std::lock_guard<std::mutex> L(M);
  return Map.size();
}

void NativeModuleCache::clear() {
  std::lock_guard<std::mutex> L(M);
  Map.clear();
}
