//===- codegen_test.cpp - Polyhedra scanning code generation ------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "codegen/Scanner.h"
#include "core/ShackleDriver.h"
#include "emitc/EmitC.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "polyhedral/OmegaTest.h"
#include "programs/Benchmarks.h"
#include "programs/Registry.h"
#include "service/Engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace shackle;

namespace {

/// Instance-count helper: the generated code must execute exactly the same
/// number of statement instances as the original.
uint64_t instances(const LoopNest &Nest, const Program &P,
                   std::vector<int64_t> Params) {
  ProgramInstance Inst(P, Params);
  return countExecutedInstances(Nest, Inst);
}

TEST(Scanner, MatMulFigure6Shape) {
  BenchSpec Spec = makeMatMul();
  LoopNest Nest = generateShackledCode(*Spec.Prog, mmmShackleC(*Spec.Prog, 25));
  std::string S = Nest.str();
  // Block loops then point loops with intersected bounds, exactly Figure 6.
  EXPECT_NE(S.find("do b1 = 0 .. floor((N - 1)/25)"), std::string::npos) << S;
  EXPECT_NE(S.find("do t1 = 25*b1 .. min(25*b1 + 24, N - 1)"),
            std::string::npos)
      << S;
  EXPECT_NE(S.find("do t3 = 0 .. N - 1"), std::string::npos) << S;
  EXPECT_EQ(Nest.loopDepth(), 5u);
  EXPECT_EQ(Nest.countInstances(), 1u);
}

TEST(Scanner, ProductShacklePinsRedundantBlockDim) {
  // C x A constrains the A row blocks to equal the C row blocks; the
  // scanner must discover b3 == b1 and bind it instead of looping.
  BenchSpec Spec = makeMatMul();
  LoopNest Nest =
      generateShackledCode(*Spec.Prog, mmmShackleCxA(*Spec.Prog, 25));
  std::string S = Nest.str();
  EXPECT_NE(S.find("b3 = b1"), std::string::npos) << S;
  EXPECT_EQ(S.find("do b3"), std::string::npos) << S;
}

TEST(Scanner, ADIFusionMatchesFigure14) {
  BenchSpec Spec = makeADI();
  LoopNest Nest = generateShackledCode(*Spec.Prog, adiShackle(*Spec.Prog));
  std::string S = Nest.str();
  // Two loops (k outer via b1, i via b2), both statements in the inner body,
  // no guards.
  EXPECT_EQ(Nest.loopDepth(), 2u);
  EXPECT_EQ(Nest.countInstances(), 2u);
  EXPECT_EQ(S.find("if ("), std::string::npos) << S;
}

TEST(Scanner, PruneUnusedLetsRemovesPaddingDims) {
  // Cholesky's S1 is nested one deep but the scan space pads to depth 3;
  // the padding t2/t3 = 0 bindings must be pruned.
  BenchSpec Spec = makeCholeskyRight();
  LoopNest Nest = generateShackledCode(*Spec.Prog,
                                       choleskyShackleStores(*Spec.Prog, 64));
  std::string S = Nest.str();
  EXPECT_EQ(S.find("t2 = 0\n"), std::string::npos) << S;
  EXPECT_EQ(S.find("t3 = 0\n"), std::string::npos) << S;
}

/// Property: the generated blocked code executes exactly as many instances
/// as the original, over a grid of problem and block sizes (this catches
/// both lost and duplicated iterations at block boundaries).
class InstanceCount
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(InstanceCount, MatMulBlockedCountsMatch) {
  auto [N, B] = GetParam();
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  LoopNest Orig = generateOriginalCode(P);
  LoopNest Blocked = generateShackledCode(P, mmmShackleCxA(P, B));
  EXPECT_EQ(instances(Orig, P, {N}), instances(Blocked, P, {N}));
  EXPECT_EQ(instances(Orig, P, {N}),
            static_cast<uint64_t>(N) * N * N);
}

TEST_P(InstanceCount, CholeskyBlockedCountsMatch) {
  auto [N, B] = GetParam();
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  LoopNest Orig = generateOriginalCode(P);
  LoopNest Blocked = generateShackledCode(P, choleskyShackleStores(P, B));
  EXPECT_EQ(instances(Orig, P, {N}), instances(Blocked, P, {N}));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InstanceCount,
    ::testing::Combine(::testing::Values<int64_t>(1, 2, 3, 7, 8, 9, 16, 23,
                                                  31),
                       ::testing::Values<int64_t>(1, 2, 4, 8)));

TEST(Scanner, NaiveCodeCountsMatchToo) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  LoopNest Orig = generateOriginalCode(P);
  LoopNest Naive = generateNaiveShackledCode(P, choleskyShackleStores(P, 5));
  for (int64_t N : {1, 4, 9, 17})
    EXPECT_EQ(instances(Orig, P, {N}), instances(Naive, P, {N})) << N;
}

TEST(Scanner, OriginalLoweringPreservesStructure) {
  BenchSpec Spec = makeCholeskyRight();
  LoopNest Orig = generateOriginalCode(*Spec.Prog);
  EXPECT_EQ(Orig.loopDepth(), 3u);
  EXPECT_EQ(Orig.countInstances(), 3u);
  // Dims are exactly the program variables.
  EXPECT_EQ(Orig.NumDims, Spec.Prog->getNumVars());
}

TEST(BoundExprPrinting, FoldsConstantDivisions) {
  BoundExpr B;
  B.Expr = AffineExpr::constant(1, 7);
  B.Divisor = 2;
  B.IsCeil = false;
  EXPECT_EQ(B.str({"x"}), "3");
  B.IsCeil = true;
  EXPECT_EQ(B.str({"x"}), "4");
  B.Expr = AffineExpr::constant(1, -7);
  B.IsCeil = false;
  EXPECT_EQ(B.str({"x"}), "-4");
  B.IsCeil = true;
  EXPECT_EQ(B.str({"x"}), "-3");
}

TEST(LoopNestPrinting, GuardsRenderAsConjunction) {
  BenchSpec Spec = makeMatMul();
  LoopNest Naive = generateNaiveShackledCode(*Spec.Prog,
                                             mmmShackleC(*Spec.Prog, 25));
  std::string S = Naive.str();
  EXPECT_NE(S.find(" && "), std::string::npos);
  EXPECT_NE(S.find(">= 0"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The scan's output, pinned
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_SOURCE_DIR
#error "SHACKLE_SOURCE_DIR must be defined by the build"
#endif

/// 64-bit FNV-1a over the bytes of \p S.
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ULL;
  return H;
}

/// Every registry benchmark x config at its default block, then every
/// examples/dsl file blocked on the array its first statement stores to
/// (default block 64), named like the native battery's cases.
std::vector<std::pair<std::string, ProgramSource>> scanSources() {
  std::vector<std::pair<std::string, ProgramSource>> Sources;
  for (const auto &[Bench, Entry] : benchRegistry())
    for (const auto &Config : Entry.Configs) {
      ProgramSource S;
      S.Benchmark = Bench;
      S.Config = Config.first;
      Sources.emplace_back(Bench + "/" + Config.first, std::move(S));
    }
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(SHACKLE_SOURCE_DIR) + "/examples/dsl"))
    if (E.path().extension() == ".dsl")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const std::filesystem::path &F : Files) {
    std::ifstream In(F);
    std::stringstream Text;
    Text << In.rdbuf();
    ProgramSource S;
    S.Dsl = Text.str();
    if (ParseResult R = parseProgram(*S.Dsl))
      S.Array = R.Prog->getArray(R.Prog->getStmt(0).LHS.ArrayId).Name;
    const std::string File = F.filename().string();
    Sources.emplace_back("dsl/" + File, std::move(S));
  }
  return Sources;
}

/// FNV-1a of CR.Nest.str() and of emitKernel(CR.Nest, "k") for every scan
/// source that reaches the shackled tier. Any change to the scanner's
/// output changes a hash; regenerate the table (the failure messages print
/// the new rows) only for a change meant to alter the generated code.
const std::map<std::string, std::pair<uint64_t, uint64_t>> &goldenScans() {
  static const std::map<std::string, std::pair<uint64_t, uint64_t>> Table = {
      {"adi/fused", {0x8ea13fa835552699ULL, 0x90d5dd3f4aa55f61ULL}},
      {"adi/two-level", {0x1332b9caa499e939ULL, 0xb7cf1a55d3045affULL}},
      {"banded/stores", {0xfeddd2066d9ccc82ULL, 0xb5c13dcb5235e212ULL}},
      {"cholesky-left/stores", {0x53fdf9c6e1eeff6aULL, 0x932b7f9dba5990eeULL}},
      {"cholesky-right/product-rw", {0xa39c989b0203282fULL, 0xf455073f83b116afULL}},
      {"cholesky-right/product-wr", {0x474ca8ed9a02fbdeULL, 0x1a3d47c9f91a07b0ULL}},
      {"cholesky-right/reads", {0xd3e6b2a2c4d4cbd2ULL, 0x0e99453b9a0f0e68ULL}},
      {"cholesky-right/stores", {0xf5ffedb9658dfc3aULL, 0x80e7b384d1828a02ULL}},
      {"gmtry/stores", {0x1b3ecc645443e1ceULL, 0x1376ca300dcc6726ULL}},
      {"matmul/c", {0xca198535ea04df15ULL, 0x8584c81498f5d4d5ULL}},
      {"matmul/cxa", {0xbbb82a3a4fefe350ULL, 0x70c62d41f755732aULL}},
      {"matmul/two-level", {0xf54b065d6ad21acaULL, 0xfd74411a1fc8979aULL}},
      {"qr/cols", {0x38f7d0640137eba2ULL, 0x5136012f4cf8452fULL}},
      {"trisolve-upper/blocks-reversed", {0x45855775f47cb404ULL, 0x84dc06ee8f47db18ULL}},
      {"dsl/cholesky.dsl", {0xdb92176fefb32512ULL, 0xaa993208d1f23171ULL}},
      {"dsl/jacobi2d.dsl", {0x5ea916ebc4d35d4eULL, 0x3bba5e01e1799ac5ULL}},
      {"dsl/matmul.dsl", {0xca198535ea04df15ULL, 0x8584c81498f5d4d5ULL}},
  };
  return Table;
}

TEST(ScanGolden, NestAndKernelMatchPinnedHashes) {
  unsigned Shackled = 0;
  for (const auto &[Name, Src] : scanSources()) {
    Expected<Resolved> R = resolveProgram(Src);
    ASSERT_TRUE(R) << Name << ": " << R.diagnostic().str();
    CodegenResult CR = generateCodeWithFallback(*R->Prog, R->Chain);
    if (CR.Tier != CodegenTier::Shackled) {
      EXPECT_EQ(goldenScans().count(Name), 0u)
          << Name << " fell back to the " << codegenTierName(CR.Tier)
          << " tier";
      continue;
    }
    ++Shackled;
    const uint64_t NestHash = fnv1a(CR.Nest.str());
    const uint64_t KernelHash = fnv1a(emitKernel(CR.Nest, "k"));
    char Row[160];
    std::snprintf(Row, sizeof(Row),
                  "{\"%s\", {0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}},",
                  Name.c_str(), NestHash, KernelHash);
    auto It = goldenScans().find(Name);
    if (It == goldenScans().end()) {
      ADD_FAILURE() << "no pinned row; add " << Row;
      continue;
    }
    EXPECT_EQ(It->second.first, NestHash) << "nest changed: " << Row;
    EXPECT_EQ(It->second.second, KernelHash) << "kernel changed: " << Row;
  }
  EXPECT_EQ(Shackled, goldenScans().size());
}

/// The solver queries the whole pipeline (legality, then the scan) makes
/// for `cholesky-right product-wr` at B=64: 4624 before gist and subtract
/// settled rows that one context row implies without a query, 839 after
/// (316 of them legality's). The bound is 1.5x the latter, so a change
/// that brings the queries back fails here.
TEST(ScanQueries, CholeskyProductWrB64StaysUnderBound) {
  ProgramSource Src;
  Src.Benchmark = "cholesky-right";
  Src.Config = "product-wr";
  Src.Blocks = {64};
  Expected<Resolved> R = resolveProgram(Src);
  ASSERT_TRUE(R) << R.diagnostic().str();
  const uint64_t Before = solverQueryCount();
  CodegenResult CR = generateCodeWithFallback(*R->Prog, R->Chain);
  const uint64_t Queries = solverQueryCount() - Before;
  EXPECT_EQ(CR.Tier, CodegenTier::Shackled);
  EXPECT_LE(Queries, 839u * 3 / 2);
}

} // namespace
