//===- LoopAST.cpp - Generated-code AST --------------------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "codegen/LoopAST.h"

#include <cassert>

using namespace shackle;

std::string BoundExpr::str(const std::vector<std::string> &Names) const {
  if (Divisor == 1)
    return Expr.str(Names);
  if (Expr.isConstant()) {
    int64_t V = Expr.getConstant();
    int64_t Q = V / Divisor;
    if (V % Divisor != 0)
      Q += IsCeil ? (V > 0) : -(V < 0);
    return std::to_string(Q);
  }
  return std::string(IsCeil ? "ceil" : "floor") + "((" + Expr.str(Names) +
         ")/" + std::to_string(Divisor) + ")";
}

ASTNodePtr ASTNode::makeLoop(unsigned Dim) {
  auto N = std::make_unique<ASTNode>();
  N->Kind = ASTKind::Loop;
  N->Dim = Dim;
  return N;
}

ASTNodePtr ASTNode::makeIf() {
  auto N = std::make_unique<ASTNode>();
  N->Kind = ASTKind::If;
  return N;
}

ASTNodePtr ASTNode::makeInstance(const Stmt *S, std::vector<unsigned> VarMap) {
  auto N = std::make_unique<ASTNode>();
  N->Kind = ASTKind::Instance;
  N->S = S;
  N->VarMap = std::move(VarMap);
  return N;
}

ASTNodePtr ASTNode::makeLet(unsigned Dim, BoundExpr Value) {
  auto N = std::make_unique<ASTNode>();
  N->Kind = ASTKind::Let;
  N->Dim = Dim;
  N->Lbs.push_back(std::move(Value));
  return N;
}

AffineExpr shackle::mapToScan(const AffineExpr &E, const Stmt &S,
                              const std::vector<unsigned> &VarMap,
                              unsigned NumDims, unsigned NumParams) {
  AffineExpr R = AffineExpr::constant(NumDims, E.getConstant());
  for (unsigned V = 0; V < E.getNumVars(); ++V) {
    int64_t C = E.getCoeff(V);
    if (C == 0)
      continue;
    unsigned Scan = NumDims; // invalid
    if (V < NumParams) {
      Scan = V;
    } else {
      for (unsigned K = 0; K < S.LoopVars.size(); ++K)
        if (S.LoopVars[K] == V) {
          Scan = VarMap[K];
          break;
        }
    }
    assert(Scan < NumDims && "statement variable outside the scan space");
    R.setCoeff(Scan, R.getCoeff(Scan) + C);
  }
  return R;
}

std::string shackle::condStr(const ConstraintRow &Row,
                             const std::vector<std::string> &Names,
                             bool IsEq) {
  std::string S;
  bool First = true;
  for (unsigned I = 0; I + 1 < Row.size(); ++I) {
    int64_t C = Row[I];
    if (C == 0)
      continue;
    if (First) {
      if (C == -1)
        S += "-";
      else if (C != 1)
        S += std::to_string(C) + "*";
    } else {
      S += C > 0 ? " + " : " - ";
      int64_t A = C > 0 ? C : -C;
      if (A != 1)
        S += std::to_string(A) + "*";
    }
    S += Names[I];
    First = false;
  }
  int64_t K = Row.back();
  if (First)
    S += std::to_string(K);
  else if (K > 0)
    S += " + " + std::to_string(K);
  else if (K < 0)
    S += " - " + std::to_string(-K);
  return S + (IsEq ? " == 0" : " >= 0");
}

namespace {

std::string boundsStr(const std::vector<BoundExpr> &Bs,
                      const std::vector<std::string> &Names, bool IsMax) {
  assert(!Bs.empty() && "loop without bounds");
  if (Bs.size() == 1)
    return Bs[0].str(Names);
  std::string S = IsMax ? "max(" : "min(";
  for (unsigned I = 0; I < Bs.size(); ++I) {
    if (I)
      S += ", ";
    S += Bs[I].str(Names);
  }
  return S + ")";
}

void printNode(const ASTNode &N, const LoopNest &Nest, std::string &Out,
               unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  switch (N.Kind) {
  case ASTKind::Loop:
    Out += Pad + "do " + Nest.DimNames[N.Dim] + " = " +
           boundsStr(N.Lbs, Nest.DimNames, /*IsMax=*/true) + " .. " +
           boundsStr(N.Ubs, Nest.DimNames, /*IsMax=*/false) + "\n";
    for (const ASTNodePtr &C : N.Body)
      printNode(*C, Nest, Out, Indent + 1);
    return;
  case ASTKind::If: {
    std::string Cond;
    for (const ConstraintRow &Row : N.EqConds) {
      if (!Cond.empty())
        Cond += " && ";
      Cond += condStr(Row, Nest.DimNames, /*IsEq=*/true);
    }
    for (const ConstraintRow &Row : N.IneqConds) {
      if (!Cond.empty())
        Cond += " && ";
      Cond += condStr(Row, Nest.DimNames, /*IsEq=*/false);
    }
    Out += Pad + "if (" + Cond + ")\n";
    for (const ASTNodePtr &C : N.Body)
      printNode(*C, Nest, Out, Indent + 1);
    return;
  }
  case ASTKind::Let:
    Out += Pad + Nest.DimNames[N.Dim] + " = " + N.Lbs[0].str(Nest.DimNames) +
           "\n";
    for (const ASTNodePtr &C : N.Body)
      printNode(*C, Nest, Out, Indent);
    return;
  case ASTKind::Instance: {
    // Print the statement with its loop variables renamed to scan dims.
    const Program &P = *Nest.Prog;
    std::string Line = N.S->Label + "[";
    for (unsigned K = 0; K < N.VarMap.size(); ++K) {
      if (K)
        Line += ",";
      Line += P.getVarName(N.S->LoopVars[K]) + "=" +
              Nest.DimNames[N.VarMap[K]];
    }
    Line += "]";
    Out += Pad + Line + "\n";
    return;
  }
  }
}

unsigned countInstancesIn(const ASTNode &N) {
  if (N.Kind == ASTKind::Instance)
    return 1;
  unsigned Total = 0;
  for (const ASTNodePtr &C : N.Body)
    Total += countInstancesIn(*C);
  return Total;
}

unsigned loopDepthIn(const ASTNode &N) {
  unsigned Max = 0;
  for (const ASTNodePtr &C : N.Body)
    Max = std::max(Max, loopDepthIn(*C));
  return Max + (N.Kind == ASTKind::Loop ? 1 : 0);
}

} // namespace

std::string LoopNest::str() const {
  std::string Out;
  for (const ASTNodePtr &N : Roots)
    printNode(*N, *this, Out, 0);
  return Out;
}

unsigned LoopNest::countInstances() const {
  unsigned Total = 0;
  for (const ASTNodePtr &N : Roots)
    Total += countInstancesIn(*N);
  return Total;
}

unsigned LoopNest::loopDepth() const {
  unsigned Max = 0;
  for (const ASTNodePtr &N : Roots)
    Max = std::max(Max, loopDepthIn(*N));
  return Max;
}
