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

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// The one command that compiles a module (and the availability probe):
/// \p Dir/kernels.c into \p Dir/kernels.so, compiler output to \p Dir/cc.log.
/// It is the one list of what a module depends on besides its plan: the
/// config hash and the probe's verdicts are keyed by its text. The unit is
/// plain C (emitc/EmitC.h), for a C or a C++ driver alike. -ffp-contract=off
/// pins the emitted arithmetic to the interpreter's multiply-then-add order
/// (no FMA contraction), the precondition for the bitwise half of the
/// differential oracle. -fopenmp-simd honours the emitter's `omp simd`
/// marks (emitc/SimdMark.h) without linking an OpenMP runtime; with no
/// reduction clause a lane does the scalar operations. The arch flags
/// match the resolved vector level: they widen codegen without touching
/// the bitwise contract, since FMA only enters through the hooks->gemm
/// routing, which is behind the ULP policy.
std::string compileCommand(const NativeJitOptions &Opts, SimdLevel Simd,
                           const std::string &Dir) {
  std::string Cmd = "'" + nativeCompilerPath(Opts) +
                    "' -x c -std=c11 -O2 -fPIC -shared -ffp-contract=off "
                    "-fopenmp-simd";
  if (Simd == SimdLevel::Avx2)
    Cmd += " -mavx2 -mfma";
  else if (Simd == SimdLevel::Avx512)
    Cmd += " -mavx512f -mavx512vl -mavx2 -mfma";
  return Cmd + " -o '" + Dir + "/kernels.so' '" + Dir + "/kernels.c' > '" +
         Dir + "/cc.log' 2>&1";
}

/// Makes a fresh directory under $TMPDIR (default /tmp) for one compile;
/// empty on failure.
std::string makeModuleDir() {
  const char *Base = std::getenv("TMPDIR");
  std::string Dir =
      std::string(Base && *Base ? Base : "/tmp") + "/shackle-native-XXXXXX";
  return mkdtemp(Dir.data()) ? Dir : std::string();
}

/// Removes what compileCommand reads and writes in \p Dir, then \p Dir.
void removeModuleDir(const std::string &Dir) {
  for (const char *F : {"/kernels.c", "/kernels.so", "/cc.log"})
    std::remove((Dir + F).c_str());
  rmdir(Dir.c_str());
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
  return fnv1a(compileCommand(Opts, resolveSimdLevel(SimdMode::Auto), "<dir>") +
               (Opts.UseMicroBlas ? " +gemm" : ""));
}

NativeModule::~NativeModule() {
  if (Handle)
    dlclose(Handle);
  if (!Dir.empty())
    removeModuleDir(Dir);
}

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

  // Resolve the vector level once: it picks both the host-side hooks->gemm
  // kernel and the -m arch flags the module is compiled with. The emitted
  // plain loops stay -ffp-contract=off, so wider codegen never changes the
  // bitwise contract of the loop branch.
  const SimdLevel Simd = resolveSimdLevel(SimdMode::Auto);
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
  M->Dir = makeModuleDir();
  if (M->Dir.empty()) {
    Diags.push_back(fallbackDiag("could not make a temp directory"));
    return nullptr;
  }
  {
    std::ofstream Out(M->Dir + "/kernels.c");
    Out << Text;
    if (!Out) {
      Diags.push_back(fallbackDiag("could not write " + M->Dir +
                                   "/kernels.c"));
      return nullptr;
    }
  }

  // 3. Invoke the compiler.
  T0 = std::chrono::steady_clock::now();
  bool CompiledOk;
  if (injectNativeCompileFail()) {
    // The chaos hook models the compiler crashing or miscompiling: same
    // failure path as a real non-zero exit, no subprocess spent.
    CompiledOk = false;
    std::ofstream(M->Dir + "/cc.log")
        << "injected cc failure (fault injector)\n";
  } else {
    CompiledOk = std::system(compileCommand(Opts, Simd, M->Dir).c_str()) == 0;
  }
  M->Stats.CompileMs = msSince(T0);
  if (!CompiledOk) {
    std::string Log = readLogHead(M->Dir + "/cc.log");
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
  M->Handle = dlopen((M->Dir + "/kernels.so").c_str(), RTLD_NOW | RTLD_LOCAL);
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
  // One probe per distinct compile command per process; the probe compiles
  // and loads a one-function unit exactly as compile() builds a module.
  static std::mutex ProbeM;
  static std::unordered_map<std::string, bool> Verdicts;
  const SimdLevel Simd = resolveSimdLevel(SimdMode::Auto);
  const std::string Key = compileCommand(Opts, Simd, "<dir>");
  std::lock_guard<std::mutex> L(ProbeM);
  if (auto It = Verdicts.find(Key); It != Verdicts.end())
    return It->second;

  bool OK = false;
  if (const std::string Dir = makeModuleDir(); !Dir.empty()) {
    std::ofstream(Dir + "/kernels.c") << "long shk_probe(void) {return 42;}\n";
    if (std::system(compileCommand(Opts, Simd, Dir).c_str()) == 0) {
      const std::string So = Dir + "/kernels.so";
      if (void *H = dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL)) {
        using ProbeFn = long (*)();
        auto F = reinterpret_cast<ProbeFn>(dlsym(H, "shk_probe"));
        OK = F && F() == 42;
        dlclose(H);
      }
    }
    removeModuleDir(Dir);
  }
  Verdicts.emplace(Key, OK);
  return OK;
}

NativeModuleCache &NativeModuleCache::instance() {
  static NativeModuleCache C;
  return C;
}

std::shared_ptr<NativeModule> NativeModuleCache::getOrCompile(
    uint64_t Key, const std::function<std::shared_ptr<NativeModule>()> &Compile,
    bool &Hit) {
  std::unique_lock<std::mutex> L(M);
  Compiled.wait(L, [&] { return Compiling.count(Key) == 0; });
  if (auto It = Map.find(Key); It != Map.end()) {
    Hit = true;
    return It->second;
  }
  Hit = false;
  Compiling.insert(Key);
  L.unlock();
  std::shared_ptr<NativeModule> Mod;
  try {
    Mod = Compile();
  } catch (...) {
    L.lock();
    Compiling.erase(Key);
    Compiled.notify_all();
    throw;
  }
  L.lock();
  Compiling.erase(Key);
  if (Mod)
    Map[Key] = Mod;
  Compiled.notify_all();
  return Mod;
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
