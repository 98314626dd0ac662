//===- dependence_test.cpp - Exact dependence analysis ------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Known dependence facts of the paper's kernels, checked against the exact
// ILP-based analysis, plus a brute-force cross-validation: a dependence
// problem is feasible iff enumerating all instance pairs at a small concrete
// N finds a dependent, ordered pair.
//
//===----------------------------------------------------------------------===//

#include "core/Dependence.h"
#include "interp/Interpreter.h"
#include "polyhedral/OmegaTest.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

using namespace shackle;

namespace {

/// Returns the set of (src, dst) statement pairs with at least one feasible
/// dependence problem.
std::set<std::pair<unsigned, unsigned>> dependentPairs(const Program &P) {
  std::set<std::pair<unsigned, unsigned>> Out;
  for (const DependenceProblem &DP : buildDependenceProblems(P))
    if (!Out.count({DP.SrcStmt, DP.DstStmt}) && !isIntegerEmpty(DP.Poly))
      Out.insert({DP.SrcStmt, DP.DstStmt});
  return Out;
}

TEST(Dependence, MatMulHasOnlySelfDependencesOnC) {
  BenchSpec Spec = makeMatMul();
  auto Pairs = dependentPairs(*Spec.Prog);
  // The single statement depends on itself (reduction on C[I,J]).
  EXPECT_EQ(Pairs, (std::set<std::pair<unsigned, unsigned>>{{0, 0}}));

  // And the self-dependence is carried only by the innermost level (K): at
  // level 0 (I) and level 1 (J) the C subscripts differ.
  for (const DependenceProblem &DP : buildDependenceProblems(*Spec.Prog)) {
    bool Feasible = !isIntegerEmpty(DP.Poly);
    if (DP.Level < 2) {
      EXPECT_FALSE(Feasible) << DP.describe(*Spec.Prog);
    }
  }
}

TEST(Dependence, CholeskyRightPairwiseFacts) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  auto Pairs = dependentPairs(P);
  // S1 (sqrt) feeds S2 (scale); S2 feeds S3 (update); S3 feeds everything
  // in later iterations including itself, S1 and S2.
  EXPECT_TRUE(Pairs.count({0, 1})); // S1 -> S2 flow on A[J,J].
  EXPECT_TRUE(Pairs.count({1, 2})); // S2 -> S3 flow on the scaled column.
  EXPECT_TRUE(Pairs.count({2, 0})); // S3 -> S1: updates feed later sqrt.
  EXPECT_TRUE(Pairs.count({2, 1}));
  EXPECT_TRUE(Pairs.count({2, 2}));
  // S1 -> S1: A[J,J] is written once per J and never re-read by S1.
  EXPECT_FALSE(Pairs.count({0, 0}));
}

TEST(Dependence, ADIKernelFacts) {
  BenchSpec Spec = makeADI();
  const Program &P = *Spec.Prog;
  auto Pairs = dependentPairs(P);
  // S2 (writes B[i,k]) feeds both statements at the next i; S1 only writes
  // X, which S2 never reads.
  EXPECT_TRUE(Pairs.count({1, 0}));
  EXPECT_TRUE(Pairs.count({1, 1}));
  EXPECT_TRUE(Pairs.count({0, 0})); // X[i-1,k] -> X[i,k].
  EXPECT_FALSE(Pairs.count({0, 1}));
}

TEST(Dependence, DescribeNamesKindAndLevel) {
  BenchSpec Spec = makeCholeskyRight();
  bool SawFlow = false;
  for (const DependenceProblem &DP : buildDependenceProblems(*Spec.Prog)) {
    std::string D = DP.describe(*Spec.Prog);
    EXPECT_NE(D.find("->"), std::string::npos);
    if (D.find("flow") == 0)
      SawFlow = true;
  }
  EXPECT_TRUE(SawFlow);
}

//===----------------------------------------------------------------------===//
// Direction vectors
//===----------------------------------------------------------------------===//

TEST(DirectionVectors, MatMulReductionIsEqualsEqualsLess) {
  BenchSpec Spec = makeMatMul();
  auto Summaries = summarizeDependences(*Spec.Prog);
  // Output, flow, and anti on C: all carried by K with (=,=,<).
  ASSERT_FALSE(Summaries.empty());
  for (const DependenceSummary &S : Summaries) {
    ASSERT_EQ(S.Directions.size(), 3u);
    EXPECT_FALSE(S.Directions[0].Lt);
    EXPECT_TRUE(S.Directions[0].Eq);
    EXPECT_FALSE(S.Directions[0].Gt);
    EXPECT_TRUE(S.Directions[1].Eq);
    EXPECT_TRUE(S.Directions[2].Lt);
    EXPECT_FALSE(S.Directions[2].Gt);
    EXPECT_FALSE(S.LoopIndependent);
    EXPECT_EQ(S.str(*Spec.Prog).find("(=,=,<)") != std::string::npos, true)
        << S.str(*Spec.Prog);
  }
}

TEST(DirectionVectors, CholeskyFlowS1ToS2IsLoopIndependent) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  bool Found = false;
  for (const DependenceSummary &S : summarizeDependences(P)) {
    if (S.Kind != DependenceKind::Flow || P.getStmt(S.SrcStmt).Label != "S1" ||
        P.getStmt(S.DstStmt).Label != "S2")
      continue;
    Found = true;
    // A[J,J] written by S1(J), read by S2(J, I): same J only.
    ASSERT_EQ(S.Directions.size(), 1u);
    EXPECT_TRUE(S.LoopIndependent);
    EXPECT_FALSE(S.Directions[0].Lt);
    EXPECT_FALSE(S.Directions[0].Gt);
  }
  EXPECT_TRUE(Found);
}

TEST(DirectionVectors, ADICarriedByOuterLoopOnly) {
  BenchSpec Spec = makeADI();
  const Program &P = *Spec.Prog;
  for (const DependenceSummary &S : summarizeDependences(P)) {
    // Every ADI dependence is strictly forward on i (distance 1).
    ASSERT_GE(S.Directions.size(), 1u);
    EXPECT_TRUE(S.Directions[0].Lt) << S.str(P);
    EXPECT_FALSE(S.Directions[0].Gt) << S.str(P);
    EXPECT_FALSE(S.LoopIndependent) << S.str(P);
  }
}

//===----------------------------------------------------------------------===//
// Brute-force cross-validation
//===----------------------------------------------------------------------===//

/// Enumerates all statement instances of the original program at concrete
/// parameters, recording (stmt, iteration vector) in execution order.
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

/// Evaluates a reference at an instance.
std::vector<int64_t> evalRef(const Program &P, const ArrayRef &R,
                             const Stmt &S, const std::vector<int64_t> &Iter,
                             const std::vector<int64_t> &Params) {
  std::vector<int64_t> VarValues(P.getNumVars(), 0);
  for (unsigned V = 0; V < P.getNumParams(); ++V)
    VarValues[V] = Params[V];
  for (unsigned K = 0; K < S.LoopVars.size(); ++K)
    VarValues[S.LoopVars[K]] = Iter[K];
  std::vector<int64_t> Out;
  for (const AffineExpr &E : R.Indices)
    Out.push_back(E.evaluate(VarValues));
  return Out;
}

class DependenceBruteForce
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(DependenceBruteForce, PairsMatchEnumeration) {
  auto [Which, N] = GetParam();
  BenchSpec Spec = Which == 0   ? makeMatMul()
                   : Which == 1 ? makeCholeskyRight()
                   : Which == 2 ? makeCholeskyLeft()
                                : makeADI();
  const Program &P = *Spec.Prog;
  std::vector<int64_t> Params = {N};

  // Ground truth: dependent ordered instance pairs by direct enumeration.
  std::vector<InstanceRecord> Insts = enumerateInstances(P, Params);
  std::set<std::pair<unsigned, unsigned>> Truth;
  for (size_t A = 0; A < Insts.size(); ++A) {
    for (size_t B = A + 1; B < Insts.size(); ++B) {
      const Stmt &SA = P.getStmt(Insts[A].StmtId);
      const Stmt &SB = P.getStmt(Insts[B].StmtId);
      if (Truth.count({SA.Id, SB.Id}))
        continue;
      auto RefsA = SA.refs();
      auto RefsB = SB.refs();
      for (const auto &[RA, WA] : RefsA) {
        for (const auto &[RB, WB] : RefsB) {
          if (!WA && !WB)
            continue;
          if (RA->ArrayId != RB->ArrayId)
            continue;
          if (evalRef(P, *RA, SA, Insts[A].Iter, Params) ==
              evalRef(P, *RB, SB, Insts[B].Iter, Params))
            Truth.insert({SA.Id, SB.Id});
        }
      }
    }
  }

  // ILP must find exactly the same statement pairs (the ILP is for all N,
  // so it may find strictly more only if a dependence needs a larger N; at
  // these sizes the kernels exercise every pair that can ever occur).
  auto ILP = dependentPairs(P);
  EXPECT_EQ(ILP, Truth);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, DependenceBruteForce,
    ::testing::Values(std::make_tuple(0, int64_t(5)),
                      std::make_tuple(1, int64_t(7)),
                      std::make_tuple(2, int64_t(7)),
                      std::make_tuple(3, int64_t(6))));

} // namespace
