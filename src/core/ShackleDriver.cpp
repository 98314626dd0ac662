//===- ShackleDriver.cpp - Shackled code generation driver -------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "core/ShackleDriver.h"

#include "codegen/Scanner.h"
#include "support/ErrorHandling.h"

#include <cassert>

using namespace shackle;

namespace {

/// Converts an affine expression over program variables into one over a dim
/// space via \p VarDims (asserting every used variable is mapped).
AffineExpr remapExpr(const AffineExpr &E, const Program &P,
                     const std::vector<int> &VarDims, unsigned NumDims) {
  AffineExpr R = AffineExpr::constant(NumDims, E.getConstant());
  for (unsigned V = 0; V < P.getNumVars(); ++V) {
    int64_t C = E.getCoeff(V);
    if (C == 0)
      continue;
    assert(VarDims[V] >= 0 && "variable not mapped");
    R.setCoeff(VarDims[V], C);
  }
  return R;
}

BoundExpr plainBound(AffineExpr E) {
  BoundExpr B;
  B.Expr = std::move(E);
  return B;
}

/// Computes the affine range [EMin, EMax] of Normal . index over the array's
/// index box [0, extent-1]^rank.
void planeRange(const Program &P, const DataBlocking &Blocking, unsigned Plane,
                const std::vector<int> &ParamDims, unsigned NumDims,
                AffineExpr &EMin, AffineExpr &EMax) {
  const ArrayDecl &A = P.getArray(Blocking.ArrayId);
  const CuttingPlaneSet &PS = Blocking.Planes[Plane];
  EMin = AffineExpr::constant(NumDims, 0);
  EMax = AffineExpr::constant(NumDims, 0);
  for (unsigned D = 0; D < PS.Normal.size(); ++D) {
    int64_t C = PS.Normal[D];
    if (C == 0)
      continue;
    AffineExpr Hi =
        remapExpr(A.Extents[D] - 1, P, ParamDims, NumDims) * C;
    if (C > 0)
      EMax = EMax + Hi;
    else
      EMin = EMin + Hi;
  }
}

//===----------------------------------------------------------------------===//
// Original code
//===----------------------------------------------------------------------===//

void lowerBody(const std::vector<Node> &Body, const Program &P,
               std::vector<ASTNodePtr> &Out, unsigned DimShift) {
  for (const Node &N : Body) {
    if (N.isLoop()) {
      const Loop &L = *N.L;
      ASTNodePtr Ast = ASTNode::makeLoop(L.Var + DimShift);
      unsigned NumDims = P.getNumVars() + DimShift;
      std::vector<int> Map(P.getNumVars());
      for (unsigned V = 0; V < P.getNumVars(); ++V)
        Map[V] = static_cast<int>(
            P.getVarKind(V) == VarKind::Param ? V : V + DimShift);
      for (const AffineExpr &Lb : L.LowerBounds)
        Ast->Lbs.push_back(plainBound(remapExpr(Lb, P, Map, NumDims)));
      for (const AffineExpr &Ub : L.UpperBounds)
        Ast->Ubs.push_back(plainBound(remapExpr(Ub, P, Map, NumDims)));
      lowerBody(L.Body, P, Ast->Body, DimShift);
      Out.push_back(std::move(Ast));
    } else {
      std::vector<unsigned> VarMap;
      for (unsigned V : N.S->LoopVars)
        VarMap.push_back(V + DimShift);
      Out.push_back(ASTNode::makeInstance(N.S, std::move(VarMap)));
    }
  }
}

} // namespace

LoopNest shackle::generateOriginalCode(const Program &P) {
  assert(P.isFinalized() && "program must be finalized");
  LoopNest Nest;
  Nest.Prog = &P;
  Nest.NumDims = P.getNumVars();
  Nest.NumParams = P.getNumParams();
  Nest.DimNames = P.getVarNames();
  lowerBody(P.topLevel(), P, Nest.Roots, /*DimShift=*/0);
  return Nest;
}

//===----------------------------------------------------------------------===//
// Naive (Figure 5) code
//===----------------------------------------------------------------------===//

LoopNest shackle::generateNaiveShackledCode(const Program &P,
                                            const ShackleChain &Chain) {
  assert(P.isFinalized() && "program must be finalized");
  unsigned NumParams = P.getNumParams();
  unsigned M = Chain.numBlockDims();
  unsigned NumDims = NumParams + M + (P.getNumVars() - NumParams);

  LoopNest Nest;
  Nest.Prog = &P;
  Nest.NumDims = NumDims;
  Nest.NumParams = NumParams;
  for (unsigned V = 0; V < NumParams; ++V)
    Nest.DimNames.push_back(P.getVarName(V));
  for (const std::string &BN : Chain.blockDimNames())
    Nest.DimNames.push_back(BN);
  for (unsigned V = NumParams; V < P.getNumVars(); ++V)
    Nest.DimNames.push_back(P.getVarName(V));

  // Program variable -> dim: params unchanged, loop vars shifted past the
  // block dims.
  std::vector<int> VarDims(P.getNumVars());
  for (unsigned V = 0; V < P.getNumVars(); ++V)
    VarDims[V] = static_cast<int>(V < NumParams ? V : V + M);
  std::vector<int> ParamDims = VarDims;

  // Lower the original program; DimShift applies to loop vars only.
  std::vector<ASTNodePtr> Inner;
  lowerBody(P.topLevel(), P, Inner, /*DimShift=*/M);

  // Wrap every statement instance with its block-membership guards.
  struct GuardAdder {
    const Program &P;
    const ShackleChain &Chain;
    const std::vector<int> &VarDims;
    unsigned NumParams, NumDims;

    void run(std::vector<ASTNodePtr> &Body) {
      for (ASTNodePtr &N : Body) {
        if (N->Kind != ASTKind::Instance) {
          run(N->Body);
          continue;
        }
        ASTNodePtr If = ASTNode::makeIf();
        unsigned Z = NumParams;
        for (const DataShackle &F : Chain.Factors) {
          for (unsigned Pl = 0; Pl < F.Blocking.Planes.size(); ++Pl, ++Z) {
            // Reuse the polyhedral constraint builder on a scratch set.
            Polyhedron Scratch(NumDims);
            addBlockLinkConstraints(Scratch, P, F, Pl, N->S->Id, Z, VarDims);
            for (const ConstraintRow &Row : Scratch.inequalities())
              If->IneqConds.push_back(Row);
          }
        }
        If->Body.push_back(std::move(N));
        N = std::move(If);
      }
    }
  };
  GuardAdder{P, Chain, VarDims, NumParams, NumDims}.run(Inner);

  // Block-enumeration loops outside.
  unsigned Z = NumParams + M;
  std::vector<ASTNodePtr> Current = std::move(Inner);
  for (unsigned FI = Chain.Factors.size(); FI-- > 0;) {
    const DataShackle &F = Chain.Factors[FI];
    for (unsigned Pl = F.Blocking.Planes.size(); Pl-- > 0;) {
      --Z;
      const CuttingPlaneSet &PS = F.Blocking.Planes[Pl];
      AffineExpr EMin, EMax;
      planeRange(P, F.Blocking, Pl, ParamDims, NumDims, EMin, EMax);
      ASTNodePtr Loop = ASTNode::makeLoop(Z);
      if (!PS.Reversed) {
        // floor(EMin/B) .. floor(EMax/B).
        BoundExpr Lb;
        Lb.Expr = EMin;
        Lb.Divisor = PS.BlockSize;
        Loop->Lbs.push_back(std::move(Lb));
        BoundExpr Ub;
        Ub.Expr = EMax;
        Ub.Divisor = PS.BlockSize;
        Loop->Ubs.push_back(std::move(Ub));
      } else {
        // z = -floor(e/B): range ceil(-EMax/B) .. ceil(-EMin/B).
        BoundExpr Lb;
        Lb.Expr = EMax * -1;
        Lb.Divisor = PS.BlockSize;
        Lb.IsCeil = true;
        Loop->Lbs.push_back(std::move(Lb));
        BoundExpr Ub;
        Ub.Expr = EMin * -1;
        Ub.Divisor = PS.BlockSize;
        Ub.IsCeil = true;
        Loop->Ubs.push_back(std::move(Ub));
      }
      Loop->Body = std::move(Current);
      Current.clear();
      Current.push_back(std::move(Loop));
    }
  }
  Nest.Roots = std::move(Current);
  return Nest;
}

//===----------------------------------------------------------------------===//
// Simplified (scanner) code
//===----------------------------------------------------------------------===//

Expected<LoopNest> shackle::generateShackledCodeChecked(
    const Program &P, const ShackleChain &Chain) {
  assert(P.isFinalized() && "program must be finalized");
  unsigned NumParams = P.getNumParams();
  unsigned M = Chain.numBlockDims();

  unsigned MaxDepth = 0;
  for (unsigned Id = 0; Id < P.getNumStmts(); ++Id)
    MaxDepth = std::max(MaxDepth, P.getStmt(Id).getDepth());

  // Scan space: [params][b1..bM][c0, t1, c1, ..., tD, cD].
  ScanSpace Space;
  Space.NumParams = NumParams;
  for (unsigned V = 0; V < NumParams; ++V) {
    Space.DimNames.push_back(P.getVarName(V));
    Space.IsSchedule.push_back(false);
  }
  for (const std::string &BN : Chain.blockDimNames()) {
    Space.DimNames.push_back(BN);
    Space.IsSchedule.push_back(false);
  }
  unsigned SchedBase = NumParams + M;
  Space.DimNames.push_back("c0");
  Space.IsSchedule.push_back(true);
  for (unsigned K = 1; K <= MaxDepth; ++K) {
    Space.DimNames.push_back(std::string("t").append(std::to_string(K)));
    Space.IsSchedule.push_back(false);
    Space.DimNames.push_back(std::string("c").append(std::to_string(K)));
    Space.IsSchedule.push_back(true);
  }
  unsigned NumDims = Space.numDims();
  auto TDim = [&](unsigned K) { return SchedBase + 2 * K - 1; }; // K >= 1.
  auto CDim = [&](unsigned J) { return SchedBase + 2 * J; };

  std::vector<ScanItem> Items;
  for (unsigned Id = 0; Id < P.getNumStmts(); ++Id) {
    const Stmt &S = P.getStmt(Id);
    unsigned D = S.getDepth();

    std::vector<int> VarDims(P.getNumVars(), -1);
    for (unsigned V = 0; V < NumParams; ++V)
      VarDims[V] = static_cast<int>(V);
    for (unsigned K = 0; K < D; ++K)
      VarDims[S.LoopVars[K]] = static_cast<int>(TDim(K + 1));

    Polyhedron Dom(Space.DimNames);
    addParamContext(Dom, P, VarDims);
    addDomainConstraints(Dom, P, S, VarDims);

    // Schedule positions, plus zero padding beyond this statement's depth.
    for (unsigned J = 0; J <= MaxDepth; ++J) {
      ConstraintRow Eq(NumDims + 1, 0);
      Eq[CDim(J)] = 1;
      Eq.back() = J < S.Schedule.size()
                      ? -static_cast<int64_t>(S.Schedule[J])
                      : 0;
      Dom.addEquality(std::move(Eq));
    }
    for (unsigned K = D + 1; K <= MaxDepth; ++K) {
      ConstraintRow Eq(NumDims + 1, 0);
      Eq[TDim(K)] = 1;
      Dom.addEquality(std::move(Eq));
    }

    // Block coordinates through the shackled references.
    unsigned Z = NumParams;
    for (const DataShackle &F : Chain.Factors)
      for (unsigned Pl = 0; Pl < F.Blocking.Planes.size(); ++Pl, ++Z)
        addBlockLinkConstraints(Dom, P, F, Pl, Id, Z, VarDims);

    ScanItem Item;
    Item.Domain = std::move(Dom);
    Item.S = &S;
    for (unsigned K = 0; K < D; ++K)
      Item.VarMap.push_back(TDim(K + 1));
    Items.push_back(std::move(Item));
  }

  Polyhedron Context(Space.DimNames);
  std::vector<int> ParamOnly(P.getNumVars(), -1);
  for (unsigned V = 0; V < NumParams; ++V)
    ParamOnly[V] = static_cast<int>(V);
  addParamContext(Context, P, ParamOnly);

  Expected<LoopNest> Nest =
      scanPolyhedraChecked(Space, std::move(Items), P, Context);
  if (!Nest.ok())
    return Nest.takeDiagnostic();
  pruneUnusedLets(Nest.get());
  return std::move(Nest.get());
}

LoopNest shackle::generateShackledCode(const Program &P,
                                       const ShackleChain &Chain) {
  Expected<LoopNest> Nest = generateShackledCodeChecked(P, Chain);
  if (!Nest.ok())
    fatalError(Nest.diagnostic().Message.c_str());
  return std::move(Nest.get());
}

//===----------------------------------------------------------------------===//
// Fault-tolerant pipeline
//===----------------------------------------------------------------------===//

const char *shackle::codegenTierName(CodegenTier Tier) {
  switch (Tier) {
  case CodegenTier::Shackled:
    return "shackled";
  case CodegenTier::Naive:
    return "naive";
  case CodegenTier::Original:
    return "original";
  }
  return "original";
}

CodegenResult shackle::generateCodeWithFallback(const Program &P,
                                                const ShackleChain &Chain,
                                                const SolverBudget &Budget) {
  return generateCodeWithFallback(P, Chain, Budget, FallbackLegalityOptions());
}

CodegenResult
shackle::generateCodeWithFallback(const Program &P, const ShackleChain &Chain,
                                  const SolverBudget &Budget,
                                  const FallbackLegalityOptions &LegOpts) {
  CodegenResult R;
  if (LegOpts.KnownIllegal) {
    // A cached proof of illegality: no query can overturn it, so skip the
    // solver and take the original-order fallback directly.
    R.Legality.Verdict = LegalityVerdict::Illegal;
    R.Legality.Legal = false;
  } else {
    R.Legality =
        checkLegalityFrom(P, Chain, LegOpts.SkipBlockDims,
                          /*FirstViolationOnly=*/true, Budget, LegOpts.Stats);
  }
  R.Diags = R.Legality.Diags;

  if (R.Legality.Verdict != LegalityVerdict::Legal) {
    // The naive tier reorders execution exactly like the shackled tier, so
    // neither is safe without a proven-legal shackle: run the original.
    R.Tier = CodegenTier::Original;
    R.Nest = generateOriginalCode(P);
    if (R.Legality.Verdict == LegalityVerdict::Illegal) {
      Diagnostic D(DiagCode::ShackleIllegal,
                   "shackle is illegal: " + R.Legality.summary(P), {},
                   Severity::Warning);
      D.addNote("falling back to original (untransformed) code");
      R.Diags.push_back(std::move(D));
    } else {
      Diagnostic D(DiagCode::LegalityUnknown,
                   "legality undecided within solver budget; "
                   "conservatively rejecting the shackle",
                   {}, Severity::Warning);
      D.addNote("falling back to original (untransformed) code");
      R.Diags.push_back(std::move(D));
    }
    return R;
  }

  Expected<LoopNest> Shackled = generateShackledCodeChecked(P, Chain);
  if (Shackled.ok()) {
    R.Tier = CodegenTier::Shackled;
    R.Nest = std::move(Shackled.get());
    return R;
  }

  // The shackle is legal but the scanner could not produce simplified code:
  // the Figure-5 guards compute the same blocked order without polyhedral
  // machinery.
  Diagnostic D = Shackled.takeDiagnostic();
  D.Sev = Severity::Warning;
  D.addNote("falling back to naive (Figure 5) blocked code");
  R.Diags.push_back(std::move(D));
  R.Tier = CodegenTier::Naive;
  R.Nest = generateNaiveShackledCode(P, Chain);
  return R;
}
