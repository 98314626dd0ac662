//===- service_test.cpp - Plan-cache service tests ----------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Tests for the shackle service subsystem (ctest label: service): the JSON
// protocol, canonical plan keys, binary plan round-trips, snapshot-file
// corruption handling, the single-flight concurrent plan cache, cached
// factor-verdict reuse, and the Unix-socket daemon end to end — N
// concurrent clients, exactly one compilation, bitwise-identical results.
// The suite runs under tsan with the parallel/chaos suites.
//
//===----------------------------------------------------------------------===//

#include "core/Legality.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "parallel/ParallelExecutor.h"
#include "polyhedral/OmegaTest.h"
#include "programs/Benchmarks.h"
#include "programs/Registry.h"
#include "service/Json.h"
#include "service/PlanCache.h"
#include "service/PlanKey.h"
#include "service/PlanSerdes.h"
#include "service/Server.h"
#include "service/Service.h"
#include "service/VerdictCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace shackle;

namespace {

#ifndef SHACKLE_CLI_PATH
#error "SHACKLE_CLI_PATH must be defined by the build"
#endif

/// Runs the CLI with \p Args; returns (exit code, combined stdout+stderr).
std::pair<int, std::string> runCli(const std::string &Args) {
  std::string Cmd = std::string(SHACKLE_CLI_PATH) + " " + Args + " 2>&1";
  std::FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  std::string Out;
  char Buf[4096];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Out.append(Buf, Got);
  int Status = pclose(Pipe);
  return {WEXITSTATUS(Status), Out};
}

/// A per-test unique temp path (tests run concurrently under ctest -j).
std::string tmpPath(const std::string &Stem) {
  static std::atomic<unsigned> Counter{0};
  return testing::TempDir() + "shksvc_" + std::to_string(getpid()) + "_" +
         std::to_string(Counter.fetch_add(1)) + "_" + Stem;
}

void writeFile(const std::string &Path, const std::string &Data) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fwrite(Data.data(), 1, Data.size(), F), Data.size());
  std::fclose(F);
}

std::string readFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr);
  std::string Out;
  char Buf[4096];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, Got);
  std::fclose(F);
  return Out;
}

/// Parses a service reply; fails the test on malformed JSON.
JsonValue parseReply(const std::string &Line) {
  JsonValue V;
  std::string Err;
  EXPECT_TRUE(parseJson(Line, V, &Err)) << Err << " in: " << Line;
  return V;
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

TEST(ServiceJson, RoundTripAndAccessors) {
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(
      R"({"op":"run","n":42,"x":1.5,"flag":true,"none":null,)"
      R"("s":"a\"b\\c\n","arr":[1,2,3],"obj":{"k":"v"}})",
      V, &Err))
      << Err;
  EXPECT_EQ(V.getString("op"), "run");
  EXPECT_EQ(V.getInt("n", -1), 42);
  EXPECT_DOUBLE_EQ(V.get("x").asNumber(), 1.5);
  EXPECT_TRUE(V.getBool("flag", false));
  EXPECT_TRUE(V.get("none").isNull());
  EXPECT_EQ(V.get("s").asString(), "a\"b\\c\n");
  ASSERT_EQ(V.get("arr").asArray().size(), 3u);
  EXPECT_EQ(V.get("arr").asArray()[2].asInt(), 3);
  EXPECT_EQ(V.get("obj").getString("k"), "v");
  // Missing fields fall back to defaults, never crash.
  EXPECT_EQ(V.getInt("missing", 7), 7);
  EXPECT_TRUE(V.get("missing").isNull());

  // Serialization round-trips (integral numbers stay integral).
  JsonValue V2;
  ASSERT_TRUE(parseJson(V.str(), V2, &Err)) << Err;
  EXPECT_EQ(V2.str(), V.str());
  EXPECT_NE(V.str().find("\"n\":42"), std::string::npos);
}

TEST(ServiceJson, RejectsMalformedInput) {
  JsonValue V;
  std::string Err;
  const char *Bad[] = {
      "",           "{",           "{\"a\":}",     "[1,2",
      "tru",        "\"unclosed",  "{\"a\":1} x",  "1.2.3",
      "{\"a\" 1}",  "\"\\u0041\"", // \uXXXX unsupported by design
  };
  for (const char *Src : Bad) {
    Err.clear();
    EXPECT_FALSE(parseJson(Src, V, &Err)) << "accepted: " << Src;
    EXPECT_FALSE(Err.empty()) << Src;
  }
}

//===----------------------------------------------------------------------===//
// Canonical plan keys
//===----------------------------------------------------------------------===//

const char *MmmDsl = R"(
param N
array C[N][N]
array A[N][N]
array B[N][N]
do I = 0, N-1
  do J = 0, N-1
    do K = 0, N-1
      S1: C[I][J] = C[I][J] + A[I][K]*B[K][J]
    end
  end
end
)";

// Same program, different whitespace and comments.
const char *MmmDslNoisy = R"(
# matrix multiply, C += A*B
param N

array C[N][N]
array A[N][N]   # the left operand
array B[N][N]
do I = 0, N-1
    do J = 0, N-1
   do K = 0, N-1
        S1: C[I][J] = C[I][J] + A[I][K]*B[K][J]
      end
  end
end
)";

TEST(ServicePlanKey, WhitespaceAndCommentsCanonicalize) {
  ParseResult R1 = parseProgram(MmmDsl);
  ParseResult R2 = parseProgram(MmmDslNoisy);
  ASSERT_TRUE(R1) << R1.Error;
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(canonicalProgramHash(*R1.Prog), canonicalProgramHash(*R2.Prog));

  MachineShape Shape{4, 1};
  auto Key = [&](const Program &P) {
    ShackleChain Chain;
    Chain.Factors.push_back(
        DataShackle::onStores(P, DataBlocking::rectangular(0, {16, 16})));
    return makePlanKey(P, Chain, {48}, 0, Shape);
  };
  EXPECT_EQ(Key(*R1.Prog).digest(), Key(*R2.Prog).digest());
  EXPECT_TRUE(Key(*R1.Prog) == Key(*R2.Prog));
}

TEST(ServicePlanKey, EveryComponentChangesTheKey) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  MachineShape Shape{4, 1};
  ShackleChain Base = mmmShackleC(P, 16);
  PlanKey K0 = makePlanKey(P, Base, {48}, 0, Shape);

  // Block size.
  EXPECT_NE(makePlanKey(P, mmmShackleC(P, 32), {48}, 0, Shape).digest(),
            K0.digest());
  // Shackle spec (different config entirely).
  EXPECT_NE(makePlanKey(P, mmmShackleCxA(P, 16), {48}, 0, Shape).digest(),
            K0.digest());
  // Spec detail: a reversed plane walk.
  ShackleChain Rev = mmmShackleC(P, 16);
  Rev.Factors[0].Blocking.Planes[0].Reversed = true;
  EXPECT_NE(makePlanKey(P, Rev, {48}, 0, Shape).digest(), K0.digest());
  // Parameter values.
  EXPECT_NE(makePlanKey(P, Base, {64}, 0, Shape).digest(), K0.digest());
  // Task level — and 'auto' is distinct from every fixed level.
  EXPECT_NE(makePlanKey(P, Base, {48}, 1, Shape).digest(), K0.digest());
  EXPECT_NE(
      makePlanKey(P, Base, {48}, PlanKeyAutoTaskLevel, Shape).digest(),
      K0.digest());
  // Machine shape.
  EXPECT_NE(makePlanKey(P, Base, {48}, 0, MachineShape{8, 2}).digest(),
            K0.digest());
  // The program itself.
  BenchSpec Chol = makeCholeskyRight();
  ShackleChain CChain = choleskyShackleStores(*Chol.Prog, 16);
  EXPECT_NE(makePlanKey(*Chol.Prog, CChain, {48}, 0, Shape).digest(),
            K0.digest());
}

//===----------------------------------------------------------------------===//
// Plan serialization
//===----------------------------------------------------------------------===//

TEST(ServiceSerdes, RoundTripExecutesBitwiseIdentical) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleC(P, 16);
  ParallelPlan Built = ParallelPlan::build(P, Chain, {48});
  ASSERT_TRUE(Built.parallelReady());

  std::string Blob = serializePlan(Built);
  ASSERT_FALSE(Blob.empty());
  ParallelPlanParts Parts;
  std::string Err;
  ASSERT_TRUE(deserializePlan(Blob, P, Parts, &Err)) << Err;
  ParallelPlan Revived = ParallelPlan::fromParts(std::move(Parts));
  EXPECT_TRUE(Revived.parallelReady());
  EXPECT_EQ(Revived.tier(), Built.tier());
  EXPECT_EQ(Revived.partition().Tasks.size(), Built.partition().Tasks.size());
  EXPECT_EQ(Revived.graph().numBlocks(), Built.graph().numBlocks());

  ProgramInstance A(P, {48}), B(P, {48});
  A.fillRandom(1, 0.5, 1.5);
  B.fillRandom(1, 0.5, 1.5);
  Built.run(A, 2);
  Revived.run(B, 2);
  EXPECT_TRUE(A.bitwiseEqual(B));
}

TEST(ServiceSerdes, RejectsTruncatedAndCorruptBlobs) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Built = ParallelPlan::build(P, mmmShackleC(P, 16), {48});
  std::string Blob = serializePlan(Built);
  ASSERT_GT(Blob.size(), 16u);

  ParallelPlanParts Parts;
  std::string Err;
  // Every truncation point must fail cleanly, never crash or over-read.
  for (size_t Len : {size_t(0), size_t(3), Blob.size() / 2, Blob.size() - 1})
    EXPECT_FALSE(
        deserializePlan(Blob.substr(0, Len), P, Parts, &Err))
        << "len " << Len;
  // A wrong program must be rejected by validation (different statement
  // and parameter counts), not crash.
  BenchSpec Chol = makeCholeskyRight();
  EXPECT_FALSE(deserializePlan(Blob, *Chol.Prog, Parts, &Err));
}

//===----------------------------------------------------------------------===//
// Snapshot files
//===----------------------------------------------------------------------===//

TEST(ServiceSnapshot, MissingFileIsACleanColdStart) {
  std::vector<SnapshotEntry> Entries;
  Status S = loadSnapshotFile(tmpPath("nonexistent.bin"), Entries);
  EXPECT_TRUE(S.ok());
  EXPECT_TRUE(Entries.empty());
}

TEST(ServiceSnapshot, MalformedFilesLoadAsEmptyWithDiagnostic) {
  // Build one real snapshot to mutate.
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Built = ParallelPlan::build(P, mmmShackleC(P, 16), {48});
  PlanKey Key = makePlanKey(P, mmmShackleC(P, 16), {48}, 0, {4, 1});
  std::string Good = tmpPath("good.bin");
  ASSERT_TRUE(
      saveSnapshotFile(Good, {SnapshotEntry{Key, serializePlan(Built)}})
          .ok());
  std::string Bytes = readFile(Good);
  ASSERT_GT(Bytes.size(), 32u);

  auto ExpectRejected = [](const std::string &Path) {
    std::vector<SnapshotEntry> Entries;
    Status S = loadSnapshotFile(Path, Entries);
    EXPECT_FALSE(S.ok()) << Path;
    EXPECT_TRUE(Entries.empty());
    EXPECT_NE(S.diagnostic().Message.find("[service-cache]"),
              std::string::npos);
    EXPECT_NE(S.diagnostic().Message.find("empty cache"), std::string::npos);
  };

  // Truncated at several points (including mid-header and mid-entry).
  for (size_t Len : {size_t(4), size_t(17), Bytes.size() / 2,
                     Bytes.size() - 1}) {
    std::string Path = tmpPath("trunc.bin");
    writeFile(Path, Bytes.substr(0, Len));
    ExpectRejected(Path);
  }
  // Arbitrary garbage.
  {
    std::string Path = tmpPath("garbage.bin");
    writeFile(Path, "this is not a snapshot file at all, not even close");
    ExpectRejected(Path);
  }
  // A single flipped bit in the payload breaks the whole-file checksum.
  {
    std::string Flipped = Bytes;
    Flipped[Bytes.size() / 2] ^= 0x10;
    std::string Path = tmpPath("bitflip.bin");
    writeFile(Path, Flipped);
    ExpectRejected(Path);
  }
  // The pristine file still loads.
  std::vector<SnapshotEntry> Entries;
  EXPECT_TRUE(loadSnapshotFile(Good, Entries).ok());
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_TRUE(Entries[0].Key == Key);
}

TEST(ServiceSnapshot, CorruptSnapshotNeverBlocksDaemonStartup) {
  // Satellite regression: `shackle serve` over a truncated snapshot warns
  // and serves cold — startup succeeds, exit code 0.
  std::string Snap = tmpPath("bad-snap.bin");
  writeFile(Snap, "SHKP"); // shorter than the fixed header
  std::string Sock = tmpPath("s.sock");

  std::pair<int, std::string> Serve;
  std::thread Server([&] {
    Serve = runCli("serve --socket=" + Sock + " --snapshot=" + Snap);
  });
  std::string Reply, Err;
  ASSERT_TRUE(serviceRequest(Sock, R"({"op":"shutdown"})", Reply, &Err))
      << Err;
  Server.join();
  EXPECT_EQ(Serve.first, 0) << Serve.second;
  EXPECT_NE(Serve.second.find("[service-cache] rejecting"),
            std::string::npos)
      << Serve.second;
  EXPECT_NE(Serve.second.find("empty cache"), std::string::npos);
  EXPECT_NE(Serve.second.find("service:"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// PlanCache: single-flight and eviction
//===----------------------------------------------------------------------===//

TEST(ServicePlanCache, SingleFlightCompilesOnceAcrossEightThreads) {
  auto Spec = std::make_shared<BenchSpec>(makeMatMul());
  std::shared_ptr<const Program> Prog(Spec, Spec->Prog.get());
  ShackleChain Chain = mmmShackleC(*Prog, 16);
  PlanKey Key = makePlanKey(*Prog, Chain, {48}, 0, {4, 1});

  PlanCache Cache;
  std::atomic<unsigned> Builds{0};
  auto Build = [&] {
    Builds.fetch_add(1);
    // Hold the flight open long enough that every late thread must wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return ParallelPlan::build(*Prog, Chain, {48});
  };

  std::vector<std::thread> Threads;
  std::vector<PlanCache::Outcome> Outcomes(8);
  for (int I = 0; I < 8; ++I)
    Threads.emplace_back(
        [&, I] { Outcomes[I] = Cache.getOrBuild(Key, Prog, Build); });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Builds.load(), 1u);
  for (const PlanCache::Outcome &O : Outcomes) {
    ASSERT_NE(O.Plan, nullptr) << O.Error;
    EXPECT_EQ(O.Plan, Outcomes[0].Plan); // literally the same plan
  }
  PlanCacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 7u);
  EXPECT_GE(S.Coalesced, 1u); // the 100ms flight guarantees overlap
  EXPECT_EQ(S.Entries, 1u);
}

TEST(ServicePlanCache, LruEvictsToPendingBlobAndRevives) {
  auto Spec = std::make_shared<BenchSpec>(makeMatMul());
  std::shared_ptr<const Program> Prog(Spec, Spec->Prog.get());
  ShackleChain Chain = mmmShackleC(*Prog, 8);

  // A cache far too small for 20 plans: 16 shards * 64B budget. With 20
  // distinct keys over 16 shards some shard holds two, so eviction must
  // fire; evicted plans demote to pending blobs, not oblivion.
  PlanCache Cache(/*MaxBytes=*/16 * 64);
  unsigned Builds = 0;
  std::vector<PlanKey> Keys;
  for (int64_t N = 16; N < 36; ++N) {
    PlanKey Key = makePlanKey(*Prog, Chain, {N}, 0, {4, 1});
    Keys.push_back(Key);
    PlanCache::Outcome O = Cache.getOrBuild(Key, Prog, [&] {
      ++Builds;
      return ParallelPlan::build(*Prog, Chain, {N});
    });
    ASSERT_NE(O.Plan, nullptr) << O.Error;
  }
  PlanCacheStats S = Cache.stats();
  EXPECT_EQ(Builds, 20u);
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_GT(S.PendingBlobs, 0u);

  // Every key is still servable without recompiling: live entries hit,
  // evicted ones revive from their pending blob.
  unsigned Rebuilds = 0;
  for (const PlanKey &Key : Keys) {
    PlanCache::Outcome O = Cache.getOrBuild(Key, Prog, [&] {
      ++Rebuilds;
      return ParallelPlan::build(*Prog, Chain, {16});
    });
    ASSERT_NE(O.Plan, nullptr);
    EXPECT_TRUE(O.Hit);
  }
  EXPECT_EQ(Rebuilds, 0u);
}

TEST(ServicePlanCache, ChargeCoversResidentFootprints) {
  auto Spec = std::make_shared<BenchSpec>(makeMatMul());
  std::shared_ptr<const Program> Prog(Spec, Spec->Prog.get());
  ShackleChain Chain = mmmShackleC(*Prog, 8);

  // Two keys that land in one shard (digest % 16, the cache's sharding).
  std::vector<int64_t> Sizes;
  std::vector<PlanKey> Keys;
  for (int64_t First = 16; Keys.empty() && First < 64; ++First) {
    PlanKey A = makePlanKey(*Prog, Chain, {First}, 0, {4, 1});
    for (int64_t Second = First + 1; Second < 64; ++Second) {
      PlanKey B = makePlanKey(*Prog, Chain, {Second}, 0, {4, 1});
      if (A.digest() % 16 == B.digest() % 16) {
        Sizes = {First, Second};
        Keys = {A, B};
        break;
      }
    }
  }
  ASSERT_EQ(Keys.size(), 2u);

  // A serialized plan carries no footprints; they are resident on top of
  // it, so the charge is the blob plus footprintBytes().
  uint64_t Blobs = 0, Resident = 0;
  for (int64_t N : Sizes) {
    ParallelPlan Plan = ParallelPlan::build(*Prog, Chain, {N});
    ASSERT_TRUE(Plan.parallelReady());
    ASSERT_GT(Plan.footprintBytes(), 0u);
    const uint64_t Blob = serializePlan(Plan).size();
    Blobs += Blob;
    Resident += Blob + Plan.footprintBytes();
  }

  // A budget (per shard: --cache-bytes / 16) that fits both blobs but not
  // what the two plans hold in memory evicts the older plan.
  PlanCache Cache(/*MaxBytes=*/16 * Blobs);
  for (std::size_t I = 0; I < Keys.size(); ++I) {
    const int64_t N = Sizes[I];
    PlanCache::Outcome O = Cache.getOrBuild(Keys[I], Prog, [&] {
      return ParallelPlan::build(*Prog, Chain, {N});
    });
    ASSERT_NE(O.Plan, nullptr) << O.Error;
  }
  PlanCacheStats S = Cache.stats();
  EXPECT_LT(Blobs, Resident);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.PendingBlobs, 1u);
  EXPECT_LE(S.BytesInUse, Resident);
}

//===----------------------------------------------------------------------===//
// Verdict cache: factor reuse
//===----------------------------------------------------------------------===//

TEST(ServiceVerdicts, LegalPrefixSkipsSolverQueries) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  // Two CxA levels: the outer level's two factors are a prefix of the
  // four-factor two-level chain.
  ShackleChain Two = mmmShackleTwoLevel(P, 16, 4);
  ASSERT_EQ(Two.Factors.size(), 4u);
  ShackleChain Prefix = mmmShackleCxA(P, 16);
  ASSERT_EQ(Prefix.Factors.size(), 2u);
  EXPECT_EQ(fingerprintChainPrefix(P, Prefix, 2),
            fingerprintChainPrefix(P, Two, 2));

  VerdictCache VC;
  EXPECT_EQ(VC.lookup(P, Two).SkipBlockDims, 0u);

  // Proving the prefix legal lets the longer chain skip its dims...
  LegalityResult PR = checkLegality(P, Prefix);
  ASSERT_TRUE(PR.Legal);
  VC.record(P, Prefix, PR.Verdict);
  VerdictReuse Reuse = VC.lookup(P, Two);
  EXPECT_EQ(Reuse.SkipFactors, 2u);
  EXPECT_EQ(Reuse.SkipBlockDims, Two.numBlockDimsPrefix(2));
  EXPECT_GT(Reuse.SkipBlockDims, 0u);

  // ...and the skipping check agrees with the full check while running
  // strictly fewer queries.
  LegalityCheckStats Full, Skipped;
  LegalityResult R1 =
      checkLegalityFrom(P, Two, 0, true, SolverBudget(), &Full);
  LegalityResult R2 = checkLegalityFrom(P, Two, Reuse.SkipBlockDims, true,
                                        SolverBudget(), &Skipped);
  EXPECT_EQ(R1.Verdict, R2.Verdict);
  EXPECT_GT(Skipped.QueriesSkipped, 0u);
  EXPECT_LT(Skipped.QueriesRun, Full.QueriesRun);

  // A legal full chain records every prefix.
  VC.record(P, Two, R1.Verdict);
  EXPECT_EQ(VC.lookup(P, Two).SkipFactors, 4u);
}

TEST(ServiceVerdicts, KnownIllegalSkipsTheSolverEntirely) {
  // Reversing the Cholesky column walk is illegal (legality_test).
  BenchSpec Chol = makeCholeskyRight();
  const Program &P = *Chol.Prog;
  DataBlocking B = DataBlocking::rectangular(0, {4, 4}, {1, 0});
  B.Planes[0].Reversed = true;
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onStores(P, B));

  LegalityResult LR = checkLegality(P, Chain);
  ASSERT_EQ(LR.Verdict, LegalityVerdict::Illegal);
  VerdictCache VC;
  VC.record(P, Chain, LR.Verdict);
  EXPECT_TRUE(VC.lookup(P, Chain).KnownIllegal);

  // A known-illegal build reaches the original tier without any solver
  // query.
  uint64_t Before = solverQueryCount();
  ParallelPlanOptions Opts;
  Opts.LegalityKnownIllegal = true;
  ParallelPlan Plan = ParallelPlan::build(P, Chain, {24}, Opts);
  EXPECT_EQ(solverQueryCount(), Before);
  EXPECT_EQ(Plan.tier(), CodegenTier::Original);

  // Semantics survive: the original-tier plan computes the same result as
  // an untainted build of the same (illegal) request.
  ParallelPlan Fresh = ParallelPlan::build(P, Chain, {24});
  EXPECT_EQ(Fresh.tier(), CodegenTier::Original);
  ProgramInstance X(P, {24}), Y(P, {24});
  X.fillRandom(1, 0.5, 1.5);
  Y.fillRandom(1, 0.5, 1.5);
  Plan.run(X, 2);
  Fresh.run(Y, 2);
  EXPECT_TRUE(X.bitwiseEqual(Y));
}

//===----------------------------------------------------------------------===//
// ServiceCore
//===----------------------------------------------------------------------===//

TEST(ServiceCore, MalformedRequestsGetErrorRepliesNeverCrash) {
  ServiceCore Core;
  auto Code = [&](const std::string &Line) {
    JsonValue R = parseReply(Core.handleLine(Line));
    EXPECT_FALSE(R.getBool("ok", true));
    return R.getString("code");
  };
  EXPECT_EQ(Code("this is not json"), "parse-error");
  EXPECT_EQ(Code("{\"op\":\"run\"}"), "usage-error"); // no params
  EXPECT_EQ(Code("{\"op\":\"frobnicate\",\"params\":[1]}"), "usage-error");
  EXPECT_EQ(Code("{\"op\":\"run\",\"benchmark\":\"no-such\",\"params\":[8]}"),
            "usage-error");
  EXPECT_EQ(Code("{\"op\":\"run\",\"benchmark\":\"matmul\",\"config\":\"zz\","
                 "\"params\":[8]}"),
            "usage-error");
  // Wrong param arity.
  EXPECT_EQ(Code("{\"op\":\"run\",\"benchmark\":\"matmul\",\"config\":\"c\","
                 "\"params\":[8,9]}"),
            "usage-error");
  // DSL that does not parse.
  EXPECT_EQ(Code("{\"op\":\"compile\",\"dsl\":\"do wat\",\"array\":\"A\","
                 "\"params\":[]}"),
            "parse-error");
  // The only block order is "colblocks"; any other value is refused, for
  // a registry program as for DSL text.
  EXPECT_EQ(Code("{\"op\":\"run\",\"benchmark\":\"matmul\",\"config\":\"c\","
                 "\"order\":\"colblockz\",\"params\":[8]}"),
            "usage-error");
  EXPECT_EQ(Code("{\"op\":\"compile\",\"dsl\":\"param N\\narray A[N]\\n"
                 "do I = 0, N-1\\n  S1: A[I] = 1\\nend\\n\",\"array\":\"A\","
                 "\"order\":7,\"params\":[8]}"),
            "usage-error");
  ServiceStats S = Core.stats();
  EXPECT_GT(S.Errors, 0u);
}

TEST(ServiceCore, VerdictReuseAcrossParamValues) {
  // Two compiles of the same benchmark at different parameter values miss
  // the plan cache both times (the partition is size-specific) but share
  // the legality proof: the second runs zero solver queries.
  ServiceCore Core;
  JsonValue R1 = parseReply(Core.handleLine(
      R"({"op":"compile","benchmark":"matmul","config":"c","block":16,"params":[48]})"));
  ASSERT_TRUE(R1.getBool("ok", false)) << R1.str();
  EXPECT_GT(R1.getInt("solver_queries_run", -1), 0);
  EXPECT_EQ(R1.getInt("solver_queries_skipped", -1), 0);

  JsonValue R2 = parseReply(Core.handleLine(
      R"({"op":"compile","benchmark":"matmul","config":"c","block":16,"params":[64]})"));
  ASSERT_TRUE(R2.getBool("ok", false)) << R2.str();
  EXPECT_FALSE(R2.getBool("hit", true));
  EXPECT_EQ(R2.getInt("solver_queries_run", -1), 0);
  EXPECT_GT(R2.getInt("solver_queries_skipped", -1), 0);

  ServiceStats S = Core.stats();
  EXPECT_EQ(S.Cache.Misses, 2u);
  EXPECT_GT(S.SolverCallsSaved, 0u);
  EXPECT_NE(Core.statsLine().find("solver-saved="), std::string::npos);
}

TEST(ServiceCore, WarmRunSkipsOmegaSimplificationAndDagEntirely) {
  // The headline acceptance criterion: a warm `run` executes without a
  // single solver query, and its result is bitwise-identical to the cold
  // run's (equal result checksums).
  ServiceCore Core;
  const std::string Req =
      R"({"op":"run","benchmark":"matmul","config":"c","block":16,"params":[48],"threads":2})";
  JsonValue Cold = parseReply(Core.handleLine(Req));
  ASSERT_TRUE(Cold.getBool("ok", false)) << Cold.str();
  EXPECT_FALSE(Cold.getBool("hit", true));

  uint64_t Before = solverQueryCount();
  JsonValue Warm = parseReply(Core.handleLine(Req));
  ASSERT_TRUE(Warm.getBool("ok", false)) << Warm.str();
  EXPECT_TRUE(Warm.getBool("hit", false));
  EXPECT_EQ(solverQueryCount(), Before)
      << "warm run must not reach the solver";
  EXPECT_EQ(Warm.getString("checksum"), Cold.getString("checksum"));
  EXPECT_FALSE(Warm.getString("checksum").empty());

  ServiceStats S = Core.stats();
  EXPECT_EQ(S.Cache.Misses, 1u);
  EXPECT_EQ(S.Cache.Hits, 1u);
}

TEST(ServiceCore, DslRequestsWorkAndCanonicalizeAcrossClients) {
  // Two clients sending the same program with different formatting share
  // one cache entry.
  ServiceCore Core;
  auto Req = [](const char *Dsl) {
    JsonValue R = JsonValue::object();
    R.set("op", JsonValue::string("run"));
    R.set("dsl", JsonValue::string(Dsl));
    R.set("array", JsonValue::string("C"));
    R.set("block", JsonValue::integer(16));
    JsonValue Params = JsonValue::array();
    Params.push(JsonValue::integer(32));
    R.set("params", Params);
    return R.str();
  };
  JsonValue R1 = parseReply(Core.handleLine(Req(MmmDsl)));
  ASSERT_TRUE(R1.getBool("ok", false)) << R1.str();
  JsonValue R2 = parseReply(Core.handleLine(Req(MmmDslNoisy)));
  ASSERT_TRUE(R2.getBool("ok", false)) << R2.str();
  EXPECT_EQ(R1.getString("key"), R2.getString("key"));
  EXPECT_TRUE(R2.getBool("hit", false));
  EXPECT_EQ(R1.getString("checksum"), R2.getString("checksum"));
}

TEST(ServiceCore, SnapshotRoundTripServesWarmAfterRestart) {
  std::string Snap = tmpPath("core-snap.bin");
  const std::string Req =
      R"({"op":"run","benchmark":"matmul","config":"c","block":16,"params":[48]})";
  std::string ColdChecksum;
  {
    ServiceOptions Opts;
    Opts.SnapshotPath = Snap;
    ServiceCore Core(Opts);
    ASSERT_TRUE(Core.loadSnapshot().ok());
    JsonValue R = parseReply(Core.handleLine(Req));
    ASSERT_TRUE(R.getBool("ok", false)) << R.str();
    ColdChecksum = R.getString("checksum");
    ASSERT_TRUE(Core.saveSnapshot().ok());
  }
  {
    ServiceOptions Opts;
    Opts.SnapshotPath = Snap;
    ServiceCore Core(Opts);
    ASSERT_TRUE(Core.loadSnapshot().ok());
    EXPECT_EQ(Core.cache().stats().PendingBlobs, 1u);
    uint64_t Before = solverQueryCount();
    JsonValue R = parseReply(Core.handleLine(Req));
    ASSERT_TRUE(R.getBool("ok", false)) << R.str();
    EXPECT_TRUE(R.getBool("hit", false));
    EXPECT_TRUE(R.getBool("from_snapshot", false));
    EXPECT_EQ(solverQueryCount(), Before);
    EXPECT_EQ(R.getString("checksum"), ColdChecksum);
    EXPECT_EQ(Core.stats().Cache.Misses, 0u);
  }
}

//===----------------------------------------------------------------------===//
// The daemon end to end
//===----------------------------------------------------------------------===//

TEST(ServiceServer, EightConcurrentClientsOneCompilationIdenticalResults) {
  ServiceCore Core;
  std::string Sock = tmpPath("e2e.sock");
  ServiceServer Server(Core, Sock);
  ASSERT_TRUE(Server.start().ok());
  std::thread ServerThread([&] { Server.serve(); });

  const std::string Req =
      R"({"op":"run","benchmark":"matmul","config":"c","block":16,"params":[48],"threads":2})";
  std::vector<std::thread> Clients;
  std::vector<std::string> Replies(8);
  std::vector<std::string> Errs(8);
  for (int I = 0; I < 8; ++I)
    Clients.emplace_back([&, I] {
      if (!serviceRequest(Sock, Req, Replies[I], &Errs[I]))
        Replies[I].clear();
    });
  for (std::thread &T : Clients)
    T.join();

  std::string Checksum;
  for (int I = 0; I < 8; ++I) {
    ASSERT_FALSE(Replies[I].empty()) << Errs[I];
    JsonValue R = parseReply(Replies[I]);
    ASSERT_TRUE(R.getBool("ok", false)) << Replies[I];
    if (Checksum.empty())
      Checksum = R.getString("checksum");
    EXPECT_EQ(R.getString("checksum"), Checksum)
        << "clients must observe bitwise-identical results";
  }

  // Exactly one compilation, in every interleaving: single-flight makes
  // this deterministic even though the coalesce count is timing-dependent.
  ServiceStats S = Core.stats();
  EXPECT_EQ(S.Cache.Misses, 1u);
  EXPECT_EQ(S.Cache.Hits, 7u);

  std::string Reply, Err;
  ASSERT_TRUE(serviceRequest(Sock, R"({"op":"shutdown"})", Reply, &Err))
      << Err;
  ServerThread.join();
}

TEST(ServiceServer, ConcurrentMissesCoalesceOntoOneFlight) {
  // The coalesce counter needs genuinely overlapping misses, which no
  // scheduler guarantees; each round targets a fresh key (new parameter
  // value) and we retry until overlap happens. Single-flight still
  // guarantees one miss per round, so the retries stay cheap.
  ServiceCore Core;
  std::string Sock = tmpPath("coalesce.sock");
  ServiceServer Server(Core, Sock);
  ASSERT_TRUE(Server.start().ok());
  std::thread ServerThread([&] { Server.serve(); });

  bool Coalesced = false;
  for (int Round = 0; Round < 6 && !Coalesced; ++Round) {
    int64_t N = 40 + Round; // fresh plan key each round
    std::string Req =
        "{\"op\":\"compile\",\"benchmark\":\"matmul\",\"config\":\"c\","
        "\"block\":16,\"params\":[" +
        std::to_string(N) + "]}";
    std::vector<std::thread> Clients;
    for (int I = 0; I < 8; ++I)
      Clients.emplace_back([&] {
        std::string Reply, Err;
        EXPECT_TRUE(serviceRequest(Sock, Req, Reply, &Err)) << Err;
      });
    for (std::thread &T : Clients)
      T.join();
    Coalesced = Core.stats().Cache.Coalesced > 0;
  }
  EXPECT_TRUE(Coalesced)
      << "no overlap in 6 rounds of 8 concurrent cold misses";

  std::string Reply, Err;
  ASSERT_TRUE(serviceRequest(Sock, R"({"op":"shutdown"})", Reply, &Err))
      << Err;
  ServerThread.join();
}

//===----------------------------------------------------------------------===//
// CLI
//===----------------------------------------------------------------------===//

TEST(ServiceCli, PlanCacheFlagReportsMissThenHit) {
  std::string Cache = tmpPath("cli-cache.bin");
  std::string Args =
      "run matmul c --block=16 --params=48 --plan-cache=" + Cache;
  auto [Rc1, Out1] = runCli(Args);
  EXPECT_EQ(Rc1, 0) << Out1;
  EXPECT_NE(Out1.find("plan-cache: miss"), std::string::npos) << Out1;

  auto [Rc2, Out2] = runCli(Args);
  EXPECT_EQ(Rc2, 0) << Out2;
  EXPECT_NE(Out2.find("plan-cache: hit"), std::string::npos) << Out2;
  // The warm run still executes and reports normally.
  EXPECT_NE(Out2.find("ran "), std::string::npos) << Out2;

  // A corrupted cache file degrades to a warned cold start, never failure.
  writeFile(Cache, "junk");
  auto [Rc3, Out3] = runCli(Args);
  EXPECT_EQ(Rc3, 0) << Out3;
  EXPECT_NE(Out3.find("[service-cache] rejecting"), std::string::npos)
      << Out3;
  EXPECT_NE(Out3.find("plan-cache: miss"), std::string::npos) << Out3;
}

TEST(ServiceCli, ServeAndRequestEndToEndWithPersistence) {
  std::string Sock = tmpPath("cli.sock");
  std::string Snap = tmpPath("cli-snap.bin");
  const std::string RunJson =
      R"('{"op":"run","benchmark":"matmul","config":"c","block":16,"params":[48],"threads":2}')";

  // Session 1: cold compile, then shutdown (which persists the snapshot).
  std::pair<int, std::string> Serve1;
  std::thread S1([&] {
    Serve1 = runCli("serve --socket=" + Sock + " --snapshot=" + Snap);
  });
  auto [RunRc, RunOut] =
      runCli("request --socket=" + Sock + " --json=" + RunJson);
  ASSERT_EQ(RunRc, 0) << RunOut;
  JsonValue R1 = parseReply(RunOut.substr(0, RunOut.find('\n')));
  ASSERT_TRUE(R1.getBool("ok", false)) << RunOut;
  EXPECT_FALSE(R1.getBool("hit", true));
  std::string Checksum = R1.getString("checksum");

  auto [StopRc, StopOut] = runCli("request --socket=" + Sock +
                                  R"( --json='{"op":"shutdown"}')");
  EXPECT_EQ(StopRc, 0) << StopOut;
  S1.join();
  EXPECT_EQ(Serve1.first, 0) << Serve1.second;
  EXPECT_NE(Serve1.second.find("service: hits=0 misses=1"),
            std::string::npos)
      << Serve1.second;

  // Session 2: the same request is warm from the persisted snapshot and
  // bitwise-identical.
  std::pair<int, std::string> Serve2;
  std::thread S2([&] {
    Serve2 = runCli("serve --socket=" + Sock + " --snapshot=" + Snap);
  });
  auto [RunRc2, RunOut2] =
      runCli("request --socket=" + Sock + " --json=" + RunJson);
  ASSERT_EQ(RunRc2, 0) << RunOut2;
  JsonValue R2 = parseReply(RunOut2.substr(0, RunOut2.find('\n')));
  ASSERT_TRUE(R2.getBool("ok", false)) << RunOut2;
  EXPECT_TRUE(R2.getBool("hit", false));
  EXPECT_TRUE(R2.getBool("from_snapshot", false));
  EXPECT_EQ(R2.getString("checksum"), Checksum);

  auto [StatsRc, StatsOut] = runCli("request --socket=" + Sock +
                                    R"( --json='{"op":"stats"}')");
  EXPECT_EQ(StatsRc, 0) << StatsOut;
  JsonValue Stats = parseReply(StatsOut.substr(0, StatsOut.find('\n')));
  EXPECT_EQ(Stats.getInt("misses", -1), 0);
  EXPECT_EQ(Stats.getInt("hits", -1), 1);

  runCli("request --socket=" + Sock + R"( --json='{"op":"shutdown"}')");
  S2.join();
  EXPECT_EQ(Serve2.first, 0) << Serve2.second;
}

} // namespace
