//===- Service.cpp - The shackle compile/run service core ---------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "core/ShackleDriver.h"
#include "service/Engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace shackle;

namespace {

JsonValue errorReply(const std::string &Code, const std::string &Message) {
  JsonValue R = JsonValue::object();
  R.set("ok", JsonValue::boolean(false));
  R.set("code", JsonValue::string(Code));
  R.set("error", JsonValue::string(Message));
  return R;
}

JsonValue count(uint64_t V) {
  return JsonValue::integer(static_cast<int64_t>(V));
}

std::string hex64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// The reply for a request the pipeline rejected.
JsonValue diagReply(const Diagnostic &D) {
  switch (D.Code) {
  case DiagCode::ParseError:
    return errorReply("parse-error", D.str());
  case DiagCode::UsageError:
  case DiagCode::ShackleMismatch:
    return errorReply("usage-error", D.str());
  default:
    return errorReply("compile-failed", D.Message);
  }
}

} // namespace

ServiceCore::ServiceCore(ServiceOptions O)
    : Opts(std::move(O)), Cache(Opts.CacheBytes) {
  if (Opts.DetectShape)
    Opts.Shape = detectMachineShape();
  LatMs.reserve(LatCap);
}

JsonValue ServiceCore::handleCompileOrRun(const JsonValue &Req, bool Execute) {
  const JsonValue &ParamsField = Req.get("params");
  if (!ParamsField.isArray())
    return errorReply("usage-error", "'params' must be an array");

  // A DSL program is shackled through its stores into 'array' (the
  // `shackle file` pipeline); otherwise 'benchmark'/'config' name a
  // registry entry. 'block' is one integer or one per rank.
  ProgramSource Src;
  if (std::string Dsl = Req.getString("dsl"); !Dsl.empty())
    Src.Dsl = std::move(Dsl);
  Src.Array = Req.getString("array");
  Src.Benchmark = Req.getString("benchmark");
  Src.Config = Req.getString("config");
  const JsonValue &BlockField = Req.get("block");
  if (BlockField.isArray()) {
    for (const JsonValue &V : BlockField.asArray())
      Src.Blocks.push_back(V.asInt());
  } else if (BlockField.isNumber()) {
    Src.Blocks.push_back(BlockField.asInt());
  }
  Src.ColBlocks = Req.getString("order") == "colblocks";
  Src.Reversed = Req.getBool("reversed", false);
  Expected<Resolved> Target = resolveProgram(Src);
  if (!Target)
    return diagReply(Target.diagnostic());

  RunRequest RR;
  RR.Target = std::move(Target.get());
  for (const JsonValue &V : ParamsField.asArray())
    RR.Params.push_back(V.asInt());
  const JsonValue &Level = Req.get("task_level");
  if (Level.isString() && Level.asString() == "auto")
    RR.TaskLevel = PlanKeyAutoTaskLevel;
  else if (Level.isNumber() && Level.asInt() >= 0)
    RR.TaskLevel = static_cast<unsigned>(Level.asInt());
  else if (!Level.isNull())
    return errorReply("usage-error",
                      "'task_level' must be a factor count or \"auto\"");
  RR.Run.NumThreads = static_cast<unsigned>(std::max<int64_t>(
      1, Req.getInt("threads", Opts.DefaultThreads)));
  RR.Budget = Opts.Budget;
  RR.Execute = Execute;

  RunResult R = Engine(Opts.Shape, &Cache, &Verdicts).run(RR);
  if (R.Error)
    return diagReply(*R.Error);
  const ParallelPlan &Plan = *R.Plan;
  JsonValue Reply = JsonValue::object();
  Reply.set("ok", JsonValue::boolean(true));
  Reply.set("op", JsonValue::string(Execute ? "run" : "compile"));
  Reply.set("key", JsonValue::string(hex64(R.Key.digest())));
  Reply.set("hit", JsonValue::boolean(R.Hit));
  Reply.set("coalesced", JsonValue::boolean(R.Coalesced));
  Reply.set("from_snapshot", JsonValue::boolean(R.FromSnapshot));
  Reply.set("tier", JsonValue::string(codegenTierName(Plan.tier())));
  Reply.set("legality",
            JsonValue::string(legalityVerdictName(Plan.legality().Verdict)));
  Reply.set("parallel_ready", JsonValue::boolean(Plan.parallelReady()));
  Reply.set("tasks", count(Plan.partition().OK
                                ? Plan.partition().Tasks.size()
                                : 0));
  if (R.Built) {
    Reply.set("solver_queries_run", count(R.QueriesRun));
    Reply.set("solver_queries_skipped", count(R.QueriesSkipped));
  }
  if (!Execute)
    return Reply;

  if (R.Stats.Failed)
    return errorReply("run-failed",
                      "a block failed every recovery attempt; results "
                      "withheld");
  Reply.set("mode", JsonValue::string(parallelModeName(R.Stats.Mode)));
  Reply.set("blocks_run", count(R.Stats.BlocksRun));
  Reply.set("threads_used", count(R.Stats.ThreadsUsed));
  Reply.set("run_ms", JsonValue::number(R.RunMs));
  Reply.set("checksum", JsonValue::string(hex64(R.Checksum)));
  return Reply;
}

JsonValue ServiceCore::handleStats() {
  ServiceStats S = stats();
  JsonValue Reply = JsonValue::object();
  Reply.set("ok", JsonValue::boolean(true));
  Reply.set("op", JsonValue::string("stats"));
  Reply.set("hits", count(S.Cache.Hits));
  Reply.set("misses", count(S.Cache.Misses));
  Reply.set("coalesced", count(S.Cache.Coalesced));
  Reply.set("evictions", count(S.Cache.Evictions));
  Reply.set("entries", count(S.Cache.Entries));
  Reply.set("bytes", count(S.Cache.BytesInUse));
  Reply.set("pending_blobs", count(S.Cache.PendingBlobs));
  Reply.set("verdict_entries", count(S.VerdictEntries));
  Reply.set("solver_calls_saved", count(S.SolverCallsSaved));
  Reply.set("requests", count(S.Requests));
  Reply.set("errors", count(S.Errors));
  Reply.set("p50_ms", JsonValue::number(S.P50Ms));
  Reply.set("p95_ms", JsonValue::number(S.P95Ms));
  Reply.set("machine", JsonValue::string(Opts.Shape.str()));
  return Reply;
}

JsonValue ServiceCore::handle(const JsonValue &Req) {
  if (!Req.isObject())
    return errorReply("parse-error", "request must be a JSON object");
  std::string Op = Req.getString("op");
  if (Op == "stats")
    return handleStats();
  if (Op == "shutdown") {
    Shutdown.store(true, std::memory_order_release);
    JsonValue Reply = JsonValue::object();
    Reply.set("ok", JsonValue::boolean(true));
    Reply.set("op", JsonValue::string("shutdown"));
    return Reply;
  }
  if (Op == "compile" || Op == "run") {
    Requests.fetch_add(1, std::memory_order_relaxed);
    auto Start = std::chrono::steady_clock::now();
    JsonValue Reply = handleCompileOrRun(Req, Op == "run");
    auto End = std::chrono::steady_clock::now();
    recordLatency(
        std::chrono::duration<double, std::milli>(End - Start).count());
    if (!Reply.getBool("ok", false))
      Errors.fetch_add(1, std::memory_order_relaxed);
    return Reply;
  }
  return errorReply("usage-error",
                    "unknown op '" + Op +
                        "' (expected compile, run, stats, or shutdown)");
}

std::string ServiceCore::handleLine(const std::string &Line) {
  JsonValue Req;
  std::string Err;
  JsonValue Reply;
  if (!parseJson(Line, Req, &Err))
    Reply = errorReply("parse-error", Err);
  else
    Reply = handle(Req);
  return Reply.str();
}

void ServiceCore::recordLatency(double Ms) {
  std::lock_guard<std::mutex> Lock(LatM);
  if (LatMs.size() < LatCap) {
    LatMs.push_back(Ms);
  } else {
    LatMs[LatNext] = Ms;
    LatNext = (LatNext + 1) % LatCap;
  }
}

void ServiceCore::latencyPercentiles(double &P50, double &P95) const {
  std::vector<double> Copy;
  {
    std::lock_guard<std::mutex> Lock(LatM);
    Copy = LatMs;
  }
  P50 = P95 = 0;
  if (Copy.empty())
    return;
  std::sort(Copy.begin(), Copy.end());
  P50 = Copy[Copy.size() / 2];
  P95 = Copy[std::min(Copy.size() - 1, (Copy.size() * 95) / 100)];
}

ServiceStats ServiceCore::stats() const {
  ServiceStats S;
  S.Cache = Cache.stats();
  S.VerdictEntries = Verdicts.size();
  S.SolverCallsSaved = Verdicts.solverCallsSaved();
  S.Requests = Requests.load(std::memory_order_relaxed);
  S.Errors = Errors.load(std::memory_order_relaxed);
  latencyPercentiles(S.P50Ms, S.P95Ms);
  return S;
}

std::string ServiceCore::statsLine() const {
  ServiceStats S = stats();
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "service: hits=%llu misses=%llu coalesced=%llu evictions=%llu "
      "entries=%llu bytes=%llu pending=%llu solver-saved=%llu "
      "requests=%llu errors=%llu p50=%.2fms p95=%.2fms",
      static_cast<unsigned long long>(S.Cache.Hits),
      static_cast<unsigned long long>(S.Cache.Misses),
      static_cast<unsigned long long>(S.Cache.Coalesced),
      static_cast<unsigned long long>(S.Cache.Evictions),
      static_cast<unsigned long long>(S.Cache.Entries),
      static_cast<unsigned long long>(S.Cache.BytesInUse),
      static_cast<unsigned long long>(S.Cache.PendingBlobs),
      static_cast<unsigned long long>(S.SolverCallsSaved),
      static_cast<unsigned long long>(S.Requests),
      static_cast<unsigned long long>(S.Errors), S.P50Ms, S.P95Ms);
  return Buf;
}

Status ServiceCore::loadSnapshot() {
  if (Opts.SnapshotPath.empty())
    return Status::success();
  return Cache.loadSnapshot(Opts.SnapshotPath);
}

Status ServiceCore::saveSnapshot() const {
  if (Opts.SnapshotPath.empty())
    return Status::success();
  return Cache.saveSnapshot(Opts.SnapshotPath);
}
