//===- legality_test.cpp - Shackle legality (Theorem 1) -----------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// The paper's legality claims, checked two independent ways: the exact ILP
// test (Theorem 1, symbolic in N), and a brute-force oracle that enumerates
// every statement instance at a small concrete N, sorts instances by
// (block coordinates of the shackled reference, original program order),
// and verifies every dependent pair stays ordered. The two must agree.
//
// Paper discrepancy note (Section 6.1): the prose lists A[L,J] for S3 in
// the second legal Cholesky shackle. Both checkers here agree that that
// choice is illegal and that A[K,J] is the legal one; see
// choleskyShackleReads in src/programs/Benchmarks.cpp.
//
//===----------------------------------------------------------------------===//

#include "core/Legality.h"
#include "core/ShackleDriver.h"
#include "interp/Interpreter.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

using namespace shackle;

namespace {

struct InstanceRecord {
  unsigned StmtId;
  std::vector<int64_t> Iter;
};

std::vector<InstanceRecord> enumerateInstances(const Program &P,
                                               std::vector<int64_t> Params) {
  std::vector<InstanceRecord> Out;
  std::vector<int64_t> VarValues(P.getNumVars(), 0);
  for (unsigned V = 0; V < P.getNumParams(); ++V)
    VarValues[V] = Params[V];
  std::function<void(const std::vector<Node> &)> Walk =
      [&](const std::vector<Node> &Body) {
        for (const Node &N : Body) {
          if (N.isLoop()) {
            const Loop &L = *N.L;
            int64_t Lo = L.LowerBounds[0].evaluate(VarValues);
            for (unsigned I = 1; I < L.LowerBounds.size(); ++I)
              Lo = std::max(Lo, L.LowerBounds[I].evaluate(VarValues));
            int64_t Hi = L.UpperBounds[0].evaluate(VarValues);
            for (unsigned I = 1; I < L.UpperBounds.size(); ++I)
              Hi = std::min(Hi, L.UpperBounds[I].evaluate(VarValues));
            for (int64_t V = Lo; V <= Hi; ++V) {
              VarValues[L.Var] = V;
              Walk(L.Body);
            }
          } else {
            InstanceRecord R;
            R.StmtId = N.S->Id;
            for (unsigned Var : N.S->LoopVars)
              R.Iter.push_back(VarValues[Var]);
            Out.push_back(std::move(R));
          }
        }
      };
  Walk(P.topLevel());
  return Out;
}

/// Block coordinates assigned to one instance by a shackle chain, by direct
/// evaluation of the definition.
std::vector<int64_t> blockCoords(const Program &P, const ShackleChain &Chain,
                                 const InstanceRecord &R,
                                 const std::vector<int64_t> &Params) {
  const Stmt &S = P.getStmt(R.StmtId);
  std::vector<int64_t> VarValues(P.getNumVars(), 0);
  for (unsigned V = 0; V < P.getNumParams(); ++V)
    VarValues[V] = Params[V];
  for (unsigned K = 0; K < S.LoopVars.size(); ++K)
    VarValues[S.LoopVars[K]] = R.Iter[K];

  std::vector<int64_t> Coords;
  for (const DataShackle &F : Chain.Factors) {
    const ArrayRef &Ref = F.ShackledRefs[R.StmtId];
    std::vector<int64_t> Idx;
    for (const AffineExpr &E : Ref.Indices)
      Idx.push_back(E.evaluate(VarValues));
    for (const CuttingPlaneSet &PS : F.Blocking.Planes) {
      int64_t E = 0;
      for (unsigned D = 0; D < PS.Normal.size(); ++D)
        E += PS.Normal[D] * Idx[D];
      int64_t Z = E >= 0 ? E / PS.BlockSize
                         : -((-E + PS.BlockSize - 1) / PS.BlockSize);
      Coords.push_back(PS.Reversed ? -Z : Z);
    }
  }
  return Coords;
}

/// Brute-force legality: execution order = stable sort by block coords,
/// check all dependent pairs keep their order.
bool bruteForceLegal(const Program &P, const ShackleChain &Chain, int64_t N,
                     std::vector<int64_t> ExtraParams = {}) {
  std::vector<int64_t> Params = {N};
  for (int64_t E : ExtraParams)
    Params.push_back(E);
  std::vector<InstanceRecord> Insts = enumerateInstances(P, Params);

  std::vector<std::vector<int64_t>> Keys;
  for (const InstanceRecord &R : Insts)
    Keys.push_back(blockCoords(P, Chain, R, Params));
  std::vector<unsigned> Order(Insts.size());
  for (unsigned I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(),
                   [&](unsigned A, unsigned B) { return Keys[A] < Keys[B]; });
  std::vector<unsigned> Pos(Insts.size());
  for (unsigned I = 0; I < Order.size(); ++I)
    Pos[Order[I]] = I;

  auto EvalRef = [&](const ArrayRef &Ref, const InstanceRecord &R) {
    const Stmt &S = P.getStmt(R.StmtId);
    std::vector<int64_t> VarValues(P.getNumVars(), 0);
    for (unsigned V = 0; V < P.getNumParams(); ++V)
      VarValues[V] = Params[V];
    for (unsigned K = 0; K < S.LoopVars.size(); ++K)
      VarValues[S.LoopVars[K]] = R.Iter[K];
    std::vector<int64_t> Out = {static_cast<int64_t>(Ref.ArrayId)};
    for (const AffineExpr &E : Ref.Indices)
      Out.push_back(E.evaluate(VarValues));
    return Out;
  };

  for (size_t A = 0; A < Insts.size(); ++A) {
    for (size_t B = A + 1; B < Insts.size(); ++B) {
      if (Pos[A] < Pos[B])
        continue; // Order preserved; nothing to check.
      auto RefsA = P.getStmt(Insts[A].StmtId).refs();
      auto RefsB = P.getStmt(Insts[B].StmtId).refs();
      for (const auto &[RA, WA] : RefsA)
        for (const auto &[RB, WB] : RefsB)
          if ((WA || WB) && EvalRef(*RA, Insts[A]) == EvalRef(*RB, Insts[B]))
            return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The paper's census, validated against the oracle
//===----------------------------------------------------------------------===//

struct CensusCase {
  unsigned S2Ref, S3Ref;
  bool ExpectLegal;
};

void PrintTo(const CensusCase &C, std::ostream *OS) {
  *OS << "S2Ref=" << C.S2Ref << " S3Ref=" << C.S3Ref
      << (C.ExpectLegal ? " legal" : " illegal");
}

class CholeskyCensus : public ::testing::TestWithParam<CensusCase> {};

TEST_P(CholeskyCensus, ILPAndBruteForceAgree) {
  CensusCase C = GetParam();
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  std::vector<unsigned> RefIdx = {0, C.S2Ref, C.S3Ref};
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onRefs(
      P, DataBlocking::rectangular(0, {3, 3}, {1, 0}), RefIdx));
  bool ILP = checkLegality(P, Chain).Legal;
  EXPECT_EQ(ILP, C.ExpectLegal);
  EXPECT_EQ(bruteForceLegal(P, Chain, 9), C.ExpectLegal);
}

// S2 refs: 1 = A[I,J], 2 = A[J,J]. S3 refs: 1 = A[L,K], 2 = A[L,J],
// 3 = A[K,J]. Column-block-major traversal (the paper's Figure 7 walk).
INSTANTIATE_TEST_SUITE_P(AllSixChoices, CholeskyCensus,
                         ::testing::Values(CensusCase{1, 1, true},
                                           CensusCase{1, 2, true},
                                           CensusCase{1, 3, false},
                                           CensusCase{2, 1, false},
                                           CensusCase{2, 2, false},
                                           CensusCase{2, 3, true}));

//===----------------------------------------------------------------------===//
// Products (Section 6)
//===----------------------------------------------------------------------===//

TEST(Legality, ProductOfLegalShacklesIsLegal) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  for (bool WritesFirst : {true, false}) {
    ShackleChain Prod = choleskyShackleProduct(P, 8, WritesFirst);
    EXPECT_TRUE(checkLegality(P, Prod).Legal);
    EXPECT_TRUE(bruteForceLegal(P, Prod, 12));
  }
}

TEST(Legality, ProductCanBeLegalWhenSecondFactorAloneIsNot) {
  // Paper Section 6: "a product M1 x M2 can be legal even if M2 by itself
  // is illegal" — the outer factor carries the troublesome dependence, like
  // an outer loop carrying the dependence that blocks an inner interchange.
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;

  // M2: shackle B[K,J] walking the K blocks *in reverse*. Alone this runs
  // the C[I,J] reduction backwards across K blocks: illegal.
  DataBlocking BBlk = DataBlocking::rectangular(2, {8, 8});
  BBlk.Planes[0].Reversed = true;
  DataShackle M2 = DataShackle::onRefs(P, BBlk, {3});
  {
    ShackleChain Alone;
    Alone.Factors.push_back(M2);
    ASSERT_FALSE(checkLegality(P, Alone).Legal);
    ASSERT_FALSE(bruteForceLegal(P, Alone, 20));
  }

  // M1: shackle A[I,K] with the same 8-blocks. Its K planes carry the
  // reduction dependence forward; within one A block the reversed M2 walk
  // pins the same K block, so the product is legal.
  ShackleChain Prod;
  Prod.Factors.push_back(DataShackle::onRefs(
      P, DataBlocking::rectangular(1, {8, 8}), {2}));
  Prod.Factors.push_back(M2);
  EXPECT_TRUE(checkLegality(P, Prod).Legal);
  EXPECT_TRUE(bruteForceLegal(P, Prod, 20));
}

TEST(Legality, MatMulAllSingleShacklesLegal) {
  // Section 6.1: shackling any of C[I,J], A[I,K], B[K,J] is legal, hence
  // all products are too.
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  for (unsigned RefIdx : {0u, 2u, 3u}) { // store C, load A, load B.
    auto Refs = P.getStmt(0).refs();
    unsigned Arr = Refs[RefIdx].first->ArrayId;
    ShackleChain Chain;
    Chain.Factors.push_back(DataShackle::onRefs(
        P, DataBlocking::rectangular(Arr, {5, 5}), {RefIdx}));
    EXPECT_TRUE(checkLegality(P, Chain).Legal) << RefIdx;
    EXPECT_TRUE(bruteForceLegal(P, Chain, 11)) << RefIdx;
  }
}

TEST(Legality, ReversedTraversalChangesLegality) {
  // Blocking C of MMM and walking blocks in reverse row order is still
  // legal (no dependence constrains I's direction across C rows)...
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  DataBlocking B = DataBlocking::rectangular(0, {4, 4});
  B.Planes[0].Reversed = true;
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onStores(P, B));
  EXPECT_TRUE(checkLegality(P, Chain).Legal);
  EXPECT_TRUE(bruteForceLegal(P, Chain, 9));

  // ...but reversing the Cholesky column walk is illegal: later columns
  // need earlier columns factored first.
  BenchSpec Chol = makeCholeskyRight();
  DataBlocking CB = DataBlocking::rectangular(0, {4, 4}, {1, 0});
  CB.Planes[0].Reversed = true;
  ShackleChain CChain;
  CChain.Factors.push_back(DataShackle::onStores(*Chol.Prog, CB));
  EXPECT_FALSE(checkLegality(*Chol.Prog, CChain).Legal);
  EXPECT_FALSE(bruteForceLegal(*Chol.Prog, CChain, 12));
}

TEST(Legality, QRColumnShackleLegalButReversedWalkIllegal) {
  BenchSpec Spec = makeQRHouseholder();
  const Program &P = *Spec.Prog;
  EXPECT_TRUE(checkLegality(P, qrColumnShackle(P, 4)).Legal);
  EXPECT_TRUE(bruteForceLegal(P, qrColumnShackle(P, 4), 9));

  // Note: because every shackled reference sits on the diagonal (K,K) or
  // (J,J), switching the plane normal from columns to rows yields the very
  // same instance-to-block map, so "row blocking" is equally legal here.
  ShackleChain Rows = qrColumnShackle(P, 4);
  for (CuttingPlaneSet &PS : Rows.Factors[0].Blocking.Planes)
    PS.Normal = {1, 0};
  EXPECT_TRUE(checkLegality(P, Rows).Legal);

  // Walking the column blocks right-to-left, however, applies updates
  // before their reflectors exist: illegal, by both checkers.
  ShackleChain Reversed = qrColumnShackle(P, 4);
  Reversed.Factors[0].Blocking.Planes[0].Reversed = true;
  EXPECT_FALSE(checkLegality(P, Reversed).Legal);
  EXPECT_FALSE(bruteForceLegal(P, Reversed, 9));
}

TEST(Legality, GmtryAndBandedAndADI) {
  {
    BenchSpec S = makeGmtry();
    EXPECT_TRUE(checkLegality(*S.Prog, gmtryShackleStores(*S.Prog, 4)).Legal);
    EXPECT_TRUE(bruteForceLegal(*S.Prog, gmtryShackleStores(*S.Prog, 4), 9));
  }
  {
    BenchSpec S = makeADI();
    EXPECT_TRUE(checkLegality(*S.Prog, adiShackle(*S.Prog)).Legal);
    EXPECT_TRUE(bruteForceLegal(*S.Prog, adiShackle(*S.Prog), 8));
  }
  {
    BenchSpec S = makeCholeskyBanded();
    ShackleChain C = choleskyShackleStores(*S.Prog, 4);
    EXPECT_TRUE(checkLegality(*S.Prog, C).Legal);
    EXPECT_TRUE(bruteForceLegal(*S.Prog, C, 12, {3}));
  }
}

TEST(Legality, DiagonalCuttingPlanesAreSupported) {
  // The paper's cutting planes are general hyperplanes, not just axis
  // slices (Figure 4 shows a general cutting-planes matrix). Block C of
  // matrix multiply with anti-diagonal planes (normal (1,1)) crossed with
  // columns: legal, and the executed result is exact.
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  DataBlocking Blocking;
  Blocking.ArrayId = 0;
  CuttingPlaneSet Diag;
  Diag.Normal = {1, 1};
  Diag.BlockSize = 5;
  CuttingPlaneSet Cols;
  Cols.Normal = {0, 1};
  Cols.BlockSize = 3;
  Blocking.Planes.push_back(std::move(Diag));
  Blocking.Planes.push_back(std::move(Cols));
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onStores(P, std::move(Blocking)));

  EXPECT_TRUE(checkLegality(P, Chain).Legal);
  EXPECT_TRUE(bruteForceLegal(P, Chain, 11));

  LoopNest Orig = generateOriginalCode(P);
  LoopNest Blocked = generateShackledCode(P, Chain);
  ProgramInstance A(P, {13}), B(P, {13});
  A.fillRandom(12, 0.5, 1.5);
  for (unsigned Arr = 0; Arr < 3; ++Arr)
    B.buffer(Arr) = A.buffer(Arr);
  runLoopNest(Orig, A);
  runLoopNest(Blocked, B);
  EXPECT_EQ(A.maxAbsDifference(B), 0.0);
}

//===----------------------------------------------------------------------===//
// Randomized cross-validation: ILP verdict == oracle verdict
//===----------------------------------------------------------------------===//

class RandomShackleCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(RandomShackleCrossCheck, ILPMatchesOracleOnCholesky) {
  int Seed = GetParam();
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;

  // Derive a pseudo-random configuration from the seed: reference choices,
  // block sizes, plane order, reversals.
  unsigned S2 = 1 + (Seed % 2);
  unsigned S3 = 1 + ((Seed / 2) % 3);
  int64_t Bsz = 2 + ((Seed / 6) % 3);
  bool ColFirst = (Seed / 18) % 2;
  bool Rev = (Seed / 36) % 2;

  std::vector<unsigned> RefIdx = {0, S2, S3};
  DataBlocking B = DataBlocking::rectangular(
      0, {Bsz, Bsz},
      ColFirst ? std::vector<unsigned>{1, 0} : std::vector<unsigned>{0, 1});
  B.Planes[0].Reversed = Rev;
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onRefs(P, B, RefIdx));

  bool ILP = checkLegality(P, Chain).Legal;
  bool Oracle = bruteForceLegal(P, Chain, 8);
  // The ILP is symbolic in N; if it says legal, every concrete N is legal.
  // If it says illegal, the witness might need a larger N than the oracle
  // checks, so only the "legal => oracle legal" direction is guaranteed at
  // a fixed N. Check both directions where sound, and the strong equality
  // at this size empirically.
  if (ILP)
    EXPECT_TRUE(Oracle);
  else
    EXPECT_FALSE(bruteForceLegal(P, Chain, 8) && bruteForceLegal(P, Chain, 11))
        << "ILP says illegal but no concrete witness at N=8,11";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomShackleCrossCheck,
                         ::testing::Range(0, 72));

} // namespace
