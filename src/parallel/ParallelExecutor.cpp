//===- ParallelExecutor.cpp - Parallel block-shackled execution --------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "parallel/ParallelExecutor.h"

#include "parallel/UndoLog.h"
#include "support/Checksum.h"
#include "support/FaultInjector.h"
#include "support/PerfCounters.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <stdexcept>

using namespace shackle;

// Out-of-line key function: NativeDispatch is implemented in src/native
// (which links this library), never the other way around.
NativeDispatch::~NativeDispatch() = default;

const char *shackle::parallelModeName(ParallelMode M) {
  switch (M) {
  case ParallelMode::Parallel:
    return "parallel";
  case ParallelMode::Degraded:
    return "degraded";
  case ParallelMode::SerialFallback:
    return "serial-fallback";
  }
  return "serial-fallback";
}

ParallelPlan ParallelPlan::build(const Program &P, const ShackleChain &Chain,
                                 std::vector<int64_t> ParamValues,
                                 const ParallelPlanOptions &Opts) {
  ParallelPlan Plan;
  Plan.Params = std::move(ParamValues);
  assert(Plan.Params.size() == P.getNumParams() &&
         "one value per program parameter");
  Plan.TotalFactors = static_cast<unsigned>(Chain.Factors.size());
  Plan.TaskFactors = Plan.TotalFactors;

  // Tier 1: the fault-tolerant codegen pipeline. An Illegal/Unknown shackle
  // lands on the Original tier, which has no block structure to extract.
  FallbackLegalityOptions LegOpts;
  LegOpts.SkipBlockDims = Opts.LegalitySkipBlockDims;
  LegOpts.KnownIllegal = Opts.LegalityKnownIllegal;
  LegOpts.Stats = Opts.LegalityStats;
  Plan.CG = generateCodeWithFallback(P, Chain, Opts.Budget, LegOpts);
  Plan.Diags = Plan.CG.Diags;
  if (!Plan.CG.isBlocked()) {
    Diagnostic D(DiagCode::ParallelFallback,
                 "shackle not proven legal; executing serially in original "
                 "program order",
                 {}, Severity::Warning);
    Plan.Diags.push_back(std::move(D));
    return Plan;
  }

  // Tier 2: slice the blocked nest into tasks. The task granularity is a
  // prefix of the chain's factors: all of them (flat), a fixed TaskLevel,
  // or - under AutoTaskLevel - the coarsest prefix that still feeds the
  // requested worker count. Partitioning on a prefix makes the inner
  // factors' block loops part of the task segments, so each task replays
  // its inner shackle levels serially in original shackled order.
  using Clock = std::chrono::steady_clock;
  auto partitionAt = [&](unsigned NumFactors) {
    return partitionLoopNestByBlocks(Plan.CG.Nest,
                                     Chain.numBlockDimsPrefix(NumFactors),
                                     Plan.Params, Opts.MaxTasks);
  };

  auto PartStart = Clock::now();
  if (Opts.AutoTaskLevel && Plan.TotalFactors > 1) {
    unsigned Hint = Opts.ThreadsHint ? Opts.ThreadsHint : 8;
    std::size_t MinTasks = std::max<std::size_t>(16, 4 * std::size_t(Hint));
    unsigned BestLevel = 0;
    BlockPartition Best;
    for (unsigned K = 1; K <= Plan.TotalFactors; ++K) {
      BlockPartition Part = partitionAt(K);
      if (!Part.OK)
        continue; // A finer level may still partition (or the flat one).
      bool Enough = Part.Tasks.size() >= MinTasks;
      BestLevel = K;
      Best = std::move(Part);
      if (Enough)
        break; // Coarsest prefix with enough parallelism.
    }
    if (BestLevel == 0) {
      // Every level failed; report the flat attempt's reason.
      Plan.Partition = partitionAt(Plan.TotalFactors);
      Plan.TaskFactors = Plan.TotalFactors;
    } else {
      Plan.Partition = std::move(Best);
      Plan.TaskFactors = BestLevel;
    }
  } else {
    Plan.TaskFactors =
        (Opts.TaskLevel == 0 || Opts.TaskLevel > Plan.TotalFactors)
            ? Plan.TotalFactors
            : Opts.TaskLevel;
    Plan.Partition = partitionAt(Plan.TaskFactors);
  }
  Plan.PartitionMs =
      std::chrono::duration<double, std::milli>(Clock::now() - PartStart)
          .count();
  if (!Plan.Partition.OK) {
    Diagnostic D(DiagCode::ParallelFallback,
                 "cannot partition generated code by block; executing the "
                 "blocked nest serially",
                 {}, Severity::Warning);
    D.addNote(Plan.Partition.FailReason);
    Plan.Diags.push_back(std::move(D));
    return Plan;
  }
  Plan.attachFootprints();

  // Tier 3: the block dependence DAG under the solver budget, over the
  // selected factor prefix's coordinates (inner coordinates projected away
  // before the sign-pattern search).
  BlockDepGraphOptions GOpts;
  GOpts.Budget = Opts.Budget;
  GOpts.MaxEdges = Opts.MaxEdges;
  GOpts.MaxPairVisits = Opts.MaxPairVisits;
  GOpts.TaskFactors = Plan.TaskFactors;
  auto DagStart = Clock::now();
  Plan.Graph = buildBlockDepGraph(P, Chain, Plan.Params,
                                  Plan.Partition.coords(), GOpts);
  Plan.DagBuildMs =
      std::chrono::duration<double, std::milli>(Clock::now() - DagStart)
          .count();
  if (Plan.Graph.EdgeCapHit || Plan.Graph.WorkCapHit) {
    Diagnostic D(DiagCode::ParallelFallback,
                 std::string("block dependence graph exceeds the ") +
                     (Plan.Graph.EdgeCapHit ? "edge cap" : "pair-scan work "
                                                           "cap") +
                     "; executing the blocked nest serially",
                 {}, Severity::Warning);
    if (Plan.TaskFactors == Plan.TotalFactors && Plan.TotalFactors > 1)
      D.addNote("a coarser task level (--task-level) would shrink the "
                "graph");
    Plan.Diags.push_back(std::move(D));
    return Plan;
  }
  if (!Plan.Graph.acyclic()) {
    // Only reachable via conservative Unknown edges (a proven-legal shackle
    // yields lex-forward edges only), but handled unconditionally: the
    // multi-pass runtime's rule - when the static schedule cannot be
    // trusted, fall back to an order that is - applies here too.
    Diagnostic D(DiagCode::ParallelFallback,
                 "block dependence graph is cyclic; executing the blocked "
                 "nest serially",
                 {}, Severity::Warning);
    if (Plan.Graph.Conservative)
      D.addNote("cycle includes conservative edges from solver-budget "
                "Unknown verdicts");
    Plan.Diags.push_back(std::move(D));
    return Plan;
  }
  if (Plan.Graph.Conservative) {
    Diagnostic D(DiagCode::ParallelFallback,
                 "some block-dependence queries exhausted the solver "
                 "budget; extra conservative edges may reduce parallelism",
                 {}, Severity::Warning);
    Plan.Diags.push_back(std::move(D));
    // Still parallel-ready: conservative edges are sound.
  }
  Plan.Ready = true;
  return Plan;
}

ParallelPlan ParallelPlan::fromParts(ParallelPlanParts Parts) {
  ParallelPlan Plan;
  Plan.CG = std::move(Parts.CG);
  Plan.Partition = std::move(Parts.Partition);
  Plan.Graph = std::move(Parts.Graph);
  Plan.Diags = std::move(Parts.Diags);
  Plan.Params = std::move(Parts.Params);
  Plan.TaskFactors = Parts.TaskFactors;
  Plan.TotalFactors = Parts.TotalFactors;
  if (Plan.Partition.OK)
    Plan.attachFootprints();
  // Recompute readiness with build()'s criteria rather than trusting a
  // persisted flag: a snapshot that deserialized into a non-runnable shape
  // degrades to the serial fallback, never an untrusted parallel schedule.
  Plan.Ready = Plan.CG.isBlocked() && Plan.Partition.OK &&
               !Plan.Graph.EdgeCapHit && !Plan.Graph.WorkCapHit &&
               Plan.Graph.acyclic();
  return Plan;
}

void ParallelPlan::attachFootprints() {
  auto Start = std::chrono::steady_clock::now();
  FootprintFallbacks = computeFootprints(
      CG.Nest, Partition, ArrayAddressing(*CG.Nest.Prog, Params));
  Written = unionFootprints(Partition);
  FootprintMs = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
}

uint64_t ParallelPlan::footprintBytes() const {
  uint64_t Runs = Written.size();
  for (const BlockTask &T : Partition.Tasks)
    Runs += T.Footprint ? T.Footprint->size() : 0;
  return Runs * sizeof(FootprintRun);
}

ParallelRunStats ParallelPlan::run(ProgramInstance &Inst,
                                   const ParallelRunOptions &Opts) const {
  assert(Inst.paramValues() == Params &&
         "instance parameters must match the plan");
  ParallelRunStats S;
  S.TaskFactors = TaskFactors;
  S.TotalFactors = TotalFactors;

  // Hardware counters around the whole execution phase (serial fallback
  // and degraded replay included — they are executions too). Opened before
  // the worker pool spawns so inherit=1 aggregates every worker thread;
  // unavailability is recorded, never fatal.
  PerfCounterSet Perf;
  bool PerfOn = false;
  S.Hw.Requested = Opts.HwCounters;
  if (Opts.HwCounters) {
    PerfOn = Perf.open();
    if (!PerfOn)
      S.Hw.Unavailable = Perf.unavailableReason();
  }
  auto finishHw = [&] {
    if (!PerfOn)
      return;
    PerfOn = false;
    HwCounterSample Smp = Perf.stop();
    S.Hw.Available = Smp.Available;
    S.Hw.Cycles = Smp.Cycles;
    S.Hw.Instructions = Smp.Instructions;
    S.Hw.L1Misses = Smp.L1Misses;
    S.Hw.L2Misses = Smp.L2Misses;
    S.Hw.LlcMisses = Smp.LlcMisses;
  };
  if (PerfOn)
    Perf.start();

  // Serial in-order execution of the whole nest, counted as one unit run in
  // one piece: the plan is not parallel-ready, or the scheduler refused its
  // graph (it re-validates and refuses without side effects, so the serial
  // run is still a clean first execution).
  auto serialFallback = [&] {
    runSerial(Inst);
    S.Mode = ParallelMode::SerialFallback;
    S.ThreadsUsed = 1;
    S.BlocksRun = Partition.OK ? Partition.Tasks.size() : 0;
    S.SegmentsRun = Partition.OK ? Partition.totalSegments() : 0;
    S.Progress = ProgressLog{};
    S.Progress.TotalUnits = 1;
    S.Progress.recordAttempt(1);
    finishHw();
    return S;
  };
  if (!Ready)
    return serialFallback();

  const std::vector<BlockTask> &Tasks = Partition.Tasks;
  const std::size_t N = Tasks.size();
  S.Progress.TotalUnits = N;

  // When restores can be refused (a corrupted undo log), the only sound
  // recovery is a whole-run restart, so snapshot the written set before any
  // block writes. One memcpy per run into the buffer the instance keeps,
  // the price of the last rung above "fail".
  S.Integrity.PristineBytes = capturePristine(Written, Inst) * sizeof(double);

  // Placement: one segment-weighted contiguous range of the lexicographic
  // task order per effective worker (the scheduler's clamp). Neighboring
  // blocks share panel reuse by the data-centric construction, so a
  // contiguous range is also a cache-coherent one.
  const AffinityMap AMap = affinityMap(Opts.NumThreads);
  const unsigned DomSize = detectDomainSize(AMap.NumWorkers);
  auto domainOf = [DomSize](unsigned W) { return W / DomSize; };
  std::atomic<uint64_t> BytesMigrated{0};

  // Shared bookkeeping. RetryCount's per-block slots are only written by
  // the worker currently executing that block (DAG edges order any two
  // conflicting executions of a block), so a plain vector is race-free;
  // the diagnostic list takes a mutex.
  std::vector<uint32_t> RetryCount(N, 0);
  std::atomic<uint64_t> Faults{0};
  std::atomic<uint64_t> SegmentsDone{0};

  // Native execution tier (DESIGN.md §15). Forced off under tracing: the
  // compiled kernels cannot emit per-access trace records, and a partially
  // traced run would be worse than none. The degraded serial replay and
  // the pristine restart below always interpret — the interpreter is the
  // degraded-mode executor.
  const NativeDispatch *Native = Opts.WorkerTraces ? nullptr : Opts.Native;
  std::atomic<uint64_t> NativeSegs{0};
  std::atomic<uint64_t> InterpSegs{0};
  std::atomic<uint64_t> NativeTasks{0};
  std::atomic<uint64_t> OracleReruns{0};
  std::mutex DiagM;
  std::vector<Diagnostic> FaultDiags;
  auto noteDiag = [&](Diagnostic D) {
    std::lock_guard<std::mutex> L(DiagM);
    FaultDiags.push_back(std::move(D));
  };

  // Integrity bookkeeping. The counters are plain telemetry; the poison
  // record is first-writer-wins under its mutex (the first non-finite
  // commit is the provenance that matters — everything downstream of it is
  // propagation, not cause), and Quarantined marks its dependence cone so
  // the serial replay skips blocks whose inputs were rolled back.
  std::atomic<uint64_t> NumChecksumsVerified{0};
  std::atomic<uint64_t> NumCorruptionsDetected{0};
  std::atomic<uint64_t> NumUndoRefused{0};
  std::atomic<uint64_t> NumPoisonedBlocks{0};
  std::atomic<bool> UndoCorrupted{false};
  std::mutex PoisonM;
  struct PoisonRecord {
    bool Set = false;
    uint32_t Task = 0;
    PoisonFinding Finding;
  } Poison;
  std::vector<uint8_t> Quarantined(N, 0);
  std::atomic<bool> ProducedWarned{false};

  // Diagnostics name the scheduling unit: outer tasks for hierarchical
  // plans (each one rolls back and retries as a whole), plain blocks
  // otherwise.
  auto blockName = [&](uint32_t T) {
    std::string Name =
        (hierarchical() ? "outer task #" : "block #") + std::to_string(T) +
        " (";
    for (std::size_t I = 0; I < Tasks[T].Coords.size(); ++I) {
      if (I)
        Name += ",";
      Name += std::to_string(Tasks[T].Coords[I]);
    }
    return Name + ")";
  };

  // One execution attempt of one block; failures come back as a message.
  // The executing worker's trace sink (if any) sees every program access
  // the attempt performs, in that worker's execution order. A non-null
  // \p Produced records the first non-finite value the block's own
  // arithmetic stores (the interpreter-side half of the poison guard) —
  // native kernels have no store hook, so Produced only fires on
  // interpreted tasks. With the native tier active and \p AllowNative, the
  // task dispatches its compiled kernel when the module has one and
  // interprets otherwise; \p RanNative (if non-null) reports whether the
  // kernel ran, which decides whether the poison scan needs the oracle.
  auto tryRunBlock = [&](uint32_t T, unsigned Worker, std::string &Err,
                         PoisonFinding *Produced, bool AllowNative,
                         bool *RanNative) {
    const TraceFn *Trace = nullptr;
    if (Opts.WorkerTraces && Worker < Opts.WorkerTraces->size())
      Trace = &(*Opts.WorkerTraces)[Worker];
    StoreCheckFn Check;
    const StoreCheckFn *CheckP = nullptr;
    if (Produced) {
      Check = [Produced](unsigned ArrayId, int64_t Offset, double Value) {
        if (!Produced->Found && !std::isfinite(Value)) {
          Produced->Found = true;
          Produced->ArrayId = ArrayId;
          Produced->Offset = Offset;
          Produced->Value = Value;
        }
      };
      CheckP = &Check;
    }
    const bool TierOn = Native != nullptr && AllowNative;
    NativeKernelFn TaskFn = TierOn ? Native->taskFnFor(T) : nullptr;
    try {
      if (injectTaskThrow(T))
        throw std::runtime_error("injected task fault");
      if (TaskFn) {
        // One call covers every segment, over the task's flattened
        // per-segment DimValues. Buffer base pointers are stable for the
        // whole run (buffers are sized at instance construction and every
        // restore writes in place), but a per-attempt table is cheap and
        // immune to that assumption.
        std::vector<double *> Ptrs(Inst.program().getNumArrays());
        for (std::size_t A = 0; A < Ptrs.size(); ++A)
          Ptrs[A] = Inst.buffer(static_cast<unsigned>(A)).data();
        std::vector<int64_t> Flat;
        Flat.reserve(Tasks[T].Segments.size() * CG.Nest.NumDims);
        for (const BlockTask::Segment &Seg : Tasks[T].Segments)
          Flat.insert(Flat.end(), Seg.DimValues.begin(),
                      Seg.DimValues.end());
        TaskFn(Ptrs.data(), Flat.data(), &Native->hooks());
        NativeSegs.fetch_add(Tasks[T].Segments.size(),
                             std::memory_order_relaxed);
        NativeTasks.fetch_add(1, std::memory_order_relaxed);
        if (RanNative)
          *RanNative = true;
      } else {
        for (const BlockTask::Segment &Seg : Tasks[T].Segments)
          runLoopNestSubtree(CG.Nest, *Seg.Node, Seg.DimValues, Inst, Trace,
                             CheckP);
        if (TierOn)
          InterpSegs.fetch_add(Tasks[T].Segments.size(),
                               std::memory_order_relaxed);
      }
      SegmentsDone.fetch_add(Tasks[T].Segments.size(),
                             std::memory_order_relaxed);
      return true;
    } catch (const std::exception &E) {
      Err = E.what();
    } catch (...) {
      Err = "unknown exception";
    }
    return false;
  };

  // Snapshot + first attempt + up to MaxRetries rollback-and-retry rounds.
  // On false the block's footprint has been restored to its pre-attempt
  // state (or the restore was refused and UndoCorrupted is set), so the
  // caller can replay it later without recapturing anything else. With a
  // hierarchical plan the rollback granularity is the whole outer block:
  // the undo log snapshots every element the task's segments (all inner
  // levels included) can write, and a retry re-runs all of them.
  //
  // The integrity ladder (DESIGN.md §12) hangs off the same loop. The undo
  // log is checksummed at capture and re-verified before every restore: a
  // mismatch (e.g. injected corrupt-undo) refuses the unsound restore and
  // flags UndoCorrupted, escalating the run to a full serial replay from
  // the pristine snapshot. A non-finite value in the committed footprint
  // quarantines the block and its downstream cone with exact provenance.
  // Under DataVerify::Block a block commits only after two executions from
  // the same pre-state produce bit-identical footprints — a flipped bit in
  // either one shows up as a checksum divergence, is rolled back, and
  // recomputed.
  auto attemptBlock = [&](uint32_t T, unsigned Worker,
                          bool AllowNative = true) {
    // The footprint is the plan's, computed at build: no native code of any
    // kind runs in the capture.
    BlockUndoLog Undo = captureBlockUndo(Tasks[T], Inst);
    const uint64_t UndoSum = checksumUndoLog(Undo);
    // The undo snapshot is exactly the block's write footprint, so it
    // doubles as the migration estimate: executing outside the home
    // worker's domain drags that many elements across domains.
    if (domainOf(Worker) != domainOf(AMap.Home[T]))
      BytesMigrated.fetch_add(Undo.Entries.size() * sizeof(double),
                              std::memory_order_relaxed);

    // Verified rollback. The corrupt-undo injection site sits here — it
    // mutates a saved pre-image the way a latent memory fault would.
    // False = the restore was refused.
    auto restoreVerified = [&]() {
      uint64_t Pick;
      if (!Undo.Entries.empty() && injectUndoCorrupt(T, Pick)) {
        double &V = Undo.Entries[Pick % Undo.Entries.size()];
        V = flipDoubleBit(V, static_cast<unsigned>(Pick >> 32));
      }
      if (checksumUndoLog(Undo) != UndoSum) {
        NumCorruptionsDetected.fetch_add(1, std::memory_order_relaxed);
        NumUndoRefused.fetch_add(1, std::memory_order_relaxed);
        UndoCorrupted.store(true, std::memory_order_relaxed);
        Diagnostic D(DiagCode::ParallelFault,
                     "undo log of " + blockName(T) +
                         " failed checksum verification; refusing the "
                         "unsound restore",
                     {}, Severity::Error);
        D.addNote("escalating to a full serial replay from the pristine "
                  "input snapshot");
        noteDiag(std::move(D));
        return false;
      }
      NumChecksumsVerified.fetch_add(1, std::memory_order_relaxed);
      restoreBlockUndo(Undo, Inst);
      return true;
    };

    // Quarantine: record first-poison provenance, mark the downstream
    // dependence cone, roll the poisoned footprint back to pre-state.
    // Only silent corruption lands here — a non-finite found in the
    // committed footprint that the interpreter never stored, so a serial
    // run would not have it either.
    auto quarantine = [&](const PoisonFinding &F) {
      const ArrayDecl &Arr = Inst.program().getArray(F.ArrayId);
      std::vector<uint32_t> Cone = downstreamCone(Graph, T);
      {
        std::lock_guard<std::mutex> L(PoisonM);
        if (!Poison.Set) {
          Poison.Set = true;
          Poison.Task = T;
          Poison.Finding = F;
        }
        Quarantined[T] = 1;
        for (uint32_t V : Cone)
          Quarantined[V] = 1;
      }
      NumPoisonedBlocks.fetch_add(1 + Cone.size(),
                                  std::memory_order_relaxed);
      NumCorruptionsDetected.fetch_add(1, std::memory_order_relaxed);
      Diagnostic D(DiagCode::ParallelPoison,
                   blockName(T) + " committed non-finite value " +
                       std::to_string(F.Value) + " at " + Arr.Name + "[" +
                       std::to_string(F.Offset) + "] (array " +
                       std::to_string(F.ArrayId) + "); block quarantined",
                   {}, Severity::Error);
      D.addNote("the interpreter never stored a non-finite value here: "
                "silent corruption of committed data, not the block's own "
                "arithmetic");
      D.addNote(Cone.empty()
                    ? "no downstream dependents"
                    : "downstream dependence cone quarantined (" +
                          std::to_string(Cone.size()) +
                          " block(s)): " + formatCone(Cone));
      noteDiag(std::move(D));
      restoreVerified();
    };

    // DataVerify::Block needs two agreeing executions even fault-free, so
    // it gets one extra attempt on top of the retry budget.
    const unsigned Attempts =
        (Opts.VerifyData == DataVerify::Block ? 2 : 1) + Opts.MaxRetries;
    bool HaveSum = false;
    uint64_t PrevSum = 0;
    unsigned FaultRetries = 0;
    for (unsigned A = 0; A < Attempts; ++A) {
      std::string Err;
      PoisonFinding Produced;
      bool RanNative = false;
      if (!tryRunBlock(T, Worker, Err, &Produced, AllowNative, &RanNative)) {
        Faults.fetch_add(1, std::memory_order_relaxed);
        Diagnostic D(DiagCode::ParallelFault,
                     blockName(T) + " failed: " + Err, {},
                     Severity::Warning);
        if (A + 1 < Attempts) {
          ++RetryCount[T];
          ++FaultRetries;
          D.addNote("write footprint rolled back (" +
                    std::to_string(Undo.Entries.size()) +
                    " element(s)); retrying, attempt " + std::to_string(A + 2) +
                    " of " + std::to_string(Attempts));
        } else {
          D.addNote("write footprint rolled back; retry budget exhausted");
        }
        noteDiag(std::move(D));
        if (!restoreVerified())
          return false;
        continue;
      }

      // The block committed. Data-fault injection sites: a bit flip or a
      // NaN/Inf poison lands in the committed footprint *after* the body
      // ran — modeling silent corruption between compute and consume.
      if (!Undo.Entries.empty()) {
        unsigned Bit;
        uint64_t Pick;
        auto slot = [&](uint64_t Pick) -> double & {
          auto [ArrayId, Offset] = Undo.element(Pick % Undo.Entries.size());
          return Inst.buffer(ArrayId)[static_cast<std::size_t>(Offset)];
        };
        if (injectBitFlip(T, Bit, Pick)) {
          double &Slot = slot(Pick);
          Slot = flipDoubleBit(Slot, Bit);
        }
        if (int PK = injectPoisonValue(T, Pick))
          slot(Pick) = PK == 1 ? std::numeric_limits<double>::quiet_NaN()
                               : std::numeric_limits<double>::infinity();
      }

      // Poison guard. A non-finite store caught by the interpreter is a
      // *produced* value: the block's own arithmetic computed it, exactly
      // as a serial run would, so refusing it would break serial
      // equivalence — attribute it loudly (once per run) and commit. A
      // non-finite only the footprint scan can see was never stored by the
      // interpreter: silent corruption, quarantined. When a block produces
      // poison, the scan is skipped (it could no longer tell the produced
      // value from an additional corrupted one).
      //
      // Native blocks have no store hook, so the scan alone cannot tell
      // produced from corrupted. The interpreter is the disagreement
      // oracle (ROADMAP "integrity under native execution"): roll the
      // block back and re-run it interpreted from the same pre-state. The
      // interpreter storing a non-finite too means the arithmetic produced
      // it — commit the interpreted result (bit-identical to serial) and
      // warn; an interpreter-clean result convicts the native execution of
      // silent corruption and the block is quarantined.
      if (!Produced.Found) {
        PoisonFinding F = scanFootprintPoison(Undo, Inst);
        if (F.Found && RanNative) {
          OracleReruns.fetch_add(1, std::memory_order_relaxed);
          if (!restoreVerified())
            return false;
          std::string OErr;
          PoisonFinding OProduced;
          if (!tryRunBlock(T, Worker, OErr, &OProduced,
                           /*AllowNative=*/false, nullptr)) {
            Faults.fetch_add(1, std::memory_order_relaxed);
            noteDiag(Diagnostic(DiagCode::ParallelFault,
                                blockName(T) +
                                    " interpreter oracle re-run failed: " +
                                    OErr,
                                {}, Severity::Warning));
            if (!restoreVerified())
              return false;
            if (A + 1 < Attempts) {
              ++RetryCount[T];
              ++FaultRetries;
              continue;
            }
            return false;
          }
          if (!OProduced.Found) {
            quarantine(F);
            return false;
          }
          // Genuine numerical poison: the interpreter's committed result
          // now sits in the footprint; fall through to the produced path.
          Produced = OProduced;
        } else if (F.Found) {
          quarantine(F);
          return false;
        }
      }
      if (Produced.Found &&
          !ProducedWarned.exchange(true, std::memory_order_relaxed)) {
        const ArrayDecl &Arr = Inst.program().getArray(Produced.ArrayId);
        Diagnostic D(DiagCode::ParallelPoison,
                     blockName(T) + " produced non-finite value " +
                         std::to_string(Produced.Value) + " at " + Arr.Name +
                         "[" + std::to_string(Produced.Offset) + "] (array " +
                         std::to_string(Produced.ArrayId) + ")",
                     {}, Severity::Warning);
        D.addNote("stored by the block's own arithmetic: genuine numerical "
                  "failure, not runtime corruption; the value is committed "
                  "exactly as a serial run would");
        D.addNote("first occurrence named; later ones are propagation");
        noteDiag(std::move(D));
      }

      // Shadow re-execution agreement: commit only after two consecutive
      // completed executions fingerprint identically.
      if (Opts.VerifyData == DataVerify::Block) {
        uint64_t Sum = checksumFootprint(Undo, Inst);
        if (!HaveSum || Sum != PrevSum) {
          if (HaveSum) {
            NumCorruptionsDetected.fetch_add(1, std::memory_order_relaxed);
            ++RetryCount[T];
            noteDiag(Diagnostic(
                DiagCode::ParallelFault,
                blockName(T) + " footprint checksums diverged between "
                               "independent executions: silent data "
                               "corruption detected; rolled back, recomputing",
                {}, Severity::Warning));
          }
          HaveSum = true;
          PrevSum = Sum;
          if (A + 1 == Attempts)
            break; // Unconfirmed single execution; refuse to commit below.
          if (!restoreVerified())
            return false;
          continue;
        }
        NumChecksumsVerified.fetch_add(1, std::memory_order_relaxed);
      }

      if (FaultRetries > 0)
        noteDiag(Diagnostic(
            DiagCode::ParallelFault,
            blockName(T) + " recovered after " +
                std::to_string(FaultRetries) + " rollback retr" +
                (FaultRetries == 1 ? "y" : "ies"),
            {}, Severity::Warning));
      return true;
    }
    // Attempt budget exhausted. Under DataVerify::Block the last completed
    // execution may still be sitting in the footprint unconfirmed — never
    // commit data no second execution has vouched for.
    if (Opts.VerifyData == DataVerify::Block && HaveSum) {
      if (restoreVerified())
        noteDiag(Diagnostic(
            DiagCode::ParallelFault,
            blockName(T) + " never produced two agreeing executions within "
                           "the attempt budget; rolled back",
            {}, Severity::Error));
    }
    return false;
  };

  DagRunOptions DOpts;
  DOpts.NumThreads = Opts.NumThreads == 0 ? 1 : Opts.NumThreads;
  DOpts.DeadlineMs = Opts.DeadlineMs;
  DOpts.StallTimeoutMs = Opts.StallTimeoutMs;
  DOpts.Affinity = &AMap.Home;
  DOpts.DomainSize = DomSize;
#ifdef SHACKLE_ENABLE_FAULT_INJECTION
  // Injected stalls and deaths wedge the pool on purpose; without a
  // watchdog they would hang the run forever, so chaos runs always get one.
  if (DOpts.StallTimeoutMs == 0 && FaultInjector::instance().armed())
    DOpts.StallTimeoutMs = 1000;
#endif

  DagRunResult R = runTaskDagPartial(
      N, Graph.Succs, Graph.InDegree, DOpts,
      [&](uint32_t T, unsigned Worker) { return attemptBlock(T, Worker); });
  if (R.Refused)
    return serialFallback();

  S.ThreadsUsed = R.Stats.ThreadsUsed;
  S.Steals = R.Stats.Steals;
  S.LocalSteals = R.Stats.LocalSteals;
  S.RemoteSteals = R.Stats.RemoteSteals;
  S.HomeHits = R.Stats.HomeHits;
  S.MailboxPushes = R.Stats.MailboxPushes;
  S.MailboxFallbacks = R.Stats.MailboxFallbacks;
  S.NumDomains = R.Stats.NumDomains;
  S.DomainSize = R.Stats.DomainSizeUsed;
  S.Abort = R.Stats.Abort;
  uint64_t ParallelDone = 0;
  for (uint8_t D : R.TaskDone)
    ParallelDone += D;
  S.Progress.recordAttempt(ParallelDone);

  if (R.Stats.OverflowPushes > 0)
    noteDiag(Diagnostic(
        DiagCode::ParallelFault,
        "deque growth allocation failed; " +
            std::to_string(R.Stats.OverflowPushes) +
            " task hand-off(s) diverted to the overflow queue (none lost)",
        {}, Severity::Warning));

  auto finalize = [&] {
    S.Faults = Faults.load(std::memory_order_relaxed);
    S.SegmentsRun = SegmentsDone.load(std::memory_order_relaxed);
    S.NativeSegments = NativeSegs.load(std::memory_order_relaxed);
    S.InterpSegments = InterpSegs.load(std::memory_order_relaxed);
    S.NativeTaskCalls = NativeTasks.load(std::memory_order_relaxed);
    S.NativeOracleReruns = OracleReruns.load(std::memory_order_relaxed);
    S.BytesMigrated = BytesMigrated.load(std::memory_order_relaxed);
    uint64_t TotalRetries = 0;
    bool AnyRetry = false;
    for (uint32_t C : RetryCount) {
      TotalRetries += C;
      AnyRetry |= C != 0;
    }
    S.Retries = TotalRetries;
    if (AnyRetry)
      S.RetriesPerBlock = RetryCount;
    S.Integrity.ChecksumsVerified =
        NumChecksumsVerified.load(std::memory_order_relaxed);
    S.Integrity.CorruptionsDetected =
        NumCorruptionsDetected.load(std::memory_order_relaxed);
    S.Integrity.UndoRefused = NumUndoRefused.load(std::memory_order_relaxed);
    S.Integrity.PoisonedBlocks =
        NumPoisonedBlocks.load(std::memory_order_relaxed);
    if (Poison.Set)
      S.Failed = true;
    S.Diags = std::move(FaultDiags);
  };

  if (R.Completed && !UndoCorrupted.load(std::memory_order_relaxed)) {
    S.Mode = ParallelMode::Parallel;
    S.BlocksRun = N;
    finishHw();
    finalize();
    return S;
  }

  // Quiesce happened. Name watchdog-detected faults (task failures already
  // produced their own diagnostics above), then announce the degradation
  // and replay the unfinished suffix serially in dependence order. Any
  // topological order is bitwise-equivalent: a completed block saw exactly
  // its DAG-ordered inputs, an unfinished block's footprint is untouched
  // (rolled back on failure, never started otherwise), and independent
  // blocks touch disjoint data by construction of the dependence graph.
  S.Mode = ParallelMode::Degraded;
  uint64_t Unfinished = N - ParallelDone;
  if (!R.Completed) {
  if (S.Abort == DagAbort::Stalled)
    noteDiag(Diagnostic(
        DiagCode::ParallelFault,
        "watchdog: no block completed within " +
            std::to_string(DOpts.StallTimeoutMs) + " ms; " +
            std::to_string(R.Stats.StalledWorkers) + " of " +
            std::to_string(R.Stats.ThreadsUsed) +
            " worker(s) without a heartbeat",
        {}, Severity::Warning));
  else if (S.Abort == DagAbort::Deadline)
    noteDiag(Diagnostic(DiagCode::ParallelFault,
                        "deadline of " + std::to_string(DOpts.DeadlineMs) +
                            " ms expired with " + std::to_string(Unfinished) +
                            " block(s) unfinished",
                        {}, Severity::Warning));
  noteDiag(Diagnostic(
      DiagCode::ParallelDegrade,
      "parallel phase aborted (" + std::string(dagAbortName(S.Abort)) +
          ") after " + std::to_string(ParallelDone) + " of " +
          std::to_string(N) + " block(s); replaying the remaining " +
          std::to_string(Unfinished) + " serially in dependence order",
      {}, Severity::Warning));
  }

  // Kahn order over the (acyclic, validated) block DAG.
  std::vector<uint32_t> Topo;
  {
    std::vector<uint32_t> Work = Graph.InDegree;
    Topo.reserve(N);
    for (std::size_t U = 0; U < N; ++U)
      if (Work[U] == 0)
        Topo.push_back(static_cast<uint32_t>(U));
    for (std::size_t I = 0; I < Topo.size(); ++I)
      for (uint32_t V : Graph.Succs[Topo[I]])
        if (--Work[V] == 0)
          Topo.push_back(V);
  }

  uint64_t Replayed = 0;
  uint64_t SkippedQuarantine = 0;
  if (!UndoCorrupted.load(std::memory_order_relaxed)) {
    for (uint32_t T : Topo) {
      if (R.TaskDone[T])
        continue;
      if (Quarantined[T]) {
        // Poisoned block or its downstream cone: inputs were rolled back
        // to pre-poison state, so running it would compute garbage. The
        // result is withheld, never silently wrong.
        ++SkippedQuarantine;
        continue;
      }
      // The degraded replay always interprets: after a quiesce the
      // interpreter is the executor of record (ISSUE/DESIGN §15 fallback
      // ladder), and its store hook restores full poison attribution.
      if (attemptBlock(T, /*Worker=*/0, /*AllowNative=*/false)) {
        ++Replayed;
        continue;
      }
      if (UndoCorrupted.load(std::memory_order_relaxed))
        break; // Refused restore: instance state is unknown everywhere.
      if (Quarantined[T])
        continue; // Quarantined itself during replay; diag already emitted.
      S.Failed = true;
      noteDiag(Diagnostic(DiagCode::ParallelFault,
                          blockName(T) +
                              " failed every attempt including serial "
                              "replay; results are unreliable",
                          {}, Severity::Error));
    }
  }

  if (UndoCorrupted.load(std::memory_order_relaxed)) {
    // Last rung before failure. A restore was refused because the undo log
    // itself failed verification, so no per-block state can be trusted:
    // put the written set back to its pristine pre-run snapshot and replay
    // the whole nest serially. Slow, but bitwise-identical to a serial run.
    noteDiag(Diagnostic(
        DiagCode::ParallelDegrade,
        "an undo log failed checksum verification; restarting the whole "
        "nest serially from the pristine snapshot",
        {}, Severity::Warning));
    restorePristine(Written, Inst);
    runSerial(Inst);
    S.Integrity.PristineReplays = 1;
    S.BlocksRun = N;
    S.ReplayedSerially = N;
    S.Progress = ProgressLog{};
    S.Progress.TotalUnits = N;
    S.Progress.recordAttempt(0);
    S.Progress.recordAttempt(N);
    finishHw();
    finalize();
    S.SegmentsRun = Partition.totalSegments();
    return S;
  }

  if (SkippedQuarantine > 0)
    noteDiag(Diagnostic(
        DiagCode::ParallelPoison,
        std::to_string(SkippedQuarantine) +
            " quarantined block(s) withheld from the serial replay; the "
            "run fails with provenance rather than committing poisoned "
            "data",
        {}, Severity::Error));
  S.ReplayedSerially = Replayed;
  S.Progress.recordAttempt(Replayed);
  S.BlocksRun = ParallelDone + Replayed;
  finishHw();
  finalize();
  return S;
}

AffinityMap ParallelPlan::affinityMap(unsigned NumThreads) const {
  const std::size_t N = Partition.OK ? Partition.Tasks.size() : 0;
  const unsigned Req = NumThreads == 0 ? 1 : NumThreads;
  const unsigned Eff =
      static_cast<unsigned>(std::min<std::size_t>(Req, N == 0 ? 1 : N));
  return buildAffinityMap(Partition, Eff);
}

std::string ParallelPlan::summary() const {
  std::string S = "tier=" + std::string(codegenTierName(CG.Tier));
  S += " mode=";
  S += Ready ? "parallel" : "serial-fallback";
  if (Partition.OK) {
    S += " task-level=" + std::to_string(TaskFactors) + "/" +
         std::to_string(TotalFactors);
    S += " tasks=" + std::to_string(Partition.Tasks.size());
    S += " segments=" + std::to_string(Partition.totalSegments());
    S += " edges=" + std::to_string(Graph.NumEdges);
    if (Ready)
      S += " critical-path=" + std::to_string(Graph.criticalPathLength());
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.2f", DagBuildMs);
    S += " dag-build-ms=";
    S += Buf;
  }
  if (Graph.Conservative)
    S += " (conservative)";
  return S;
}
