//===- Program.cpp - Loop-nest IR -------------------------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include <cassert>

using namespace shackle;

std::vector<std::pair<const ArrayRef *, bool>> Stmt::refs() const {
  std::vector<std::pair<const ArrayRef *, bool>> Out;
  Out.emplace_back(&LHS, /*IsWrite=*/true);
  std::vector<const ArrayRef *> Loads;
  RHS->collectLoads(Loads);
  for (const ArrayRef *R : Loads)
    Out.emplace_back(R, /*IsWrite=*/false);
  return Out;
}

unsigned Program::addParam(const std::string &Name, int64_t MinValue) {
  assert(!Finalized && "program is frozen");
  assert(AllLoops.empty() && "parameters must be declared before loops");
  VarNames.push_back(Name);
  VarKinds.push_back(VarKind::Param);
  ParamMins.push_back(MinValue);
  LoopsByVar.push_back(nullptr);
  return NumParams++;
}

unsigned Program::addSquareArray(const std::string &Name, unsigned Rank,
                                 unsigned ExtentParam, LayoutKind Layout) {
  std::vector<AffineExpr> Extents(Rank, v(ExtentParam));
  return addArray(Name, std::move(Extents), Layout);
}

unsigned Program::addArray(const std::string &Name,
                           std::vector<AffineExpr> Extents, LayoutKind Layout,
                           unsigned BandParam) {
  assert(!Finalized && "program is frozen");
  ArrayDecl D;
  D.Name = Name;
  D.Extents = std::move(Extents);
  D.Layout = Layout;
  D.BandParam = BandParam;
  Arrays.push_back(std::move(D));
  return Arrays.size() - 1;
}

void Program::setTiledLayout(unsigned ArrayId, int64_t TileRows,
                             int64_t TileCols) {
  assert(!Finalized && "program is frozen");
  assert(ArrayId < Arrays.size() && "array index out of range");
  assert(Arrays[ArrayId].Extents.size() == 2 &&
         "tiled layout is for matrices");
  assert(TileRows >= 1 && TileCols >= 1 && "tile sizes must be positive");
  Arrays[ArrayId].Layout = LayoutKind::TiledRowMajor;
  Arrays[ArrayId].TileRows = TileRows;
  Arrays[ArrayId].TileCols = TileCols;
}

std::vector<Node> &Program::currentBody() {
  return OpenLoops.empty() ? TopLevel : OpenLoops.back()->Body;
}

unsigned Program::beginLoop(const std::string &Name, AffineExpr Lb,
                            AffineExpr Ub) {
  return beginLoopMulti(Name, {std::move(Lb)}, {std::move(Ub)});
}

unsigned Program::beginLoopMulti(const std::string &Name,
                                 std::vector<AffineExpr> Lbs,
                                 std::vector<AffineExpr> Ubs) {
  assert(!Finalized && "program is frozen");
  assert(!Lbs.empty() && !Ubs.empty() && "loops need at least one bound");
  unsigned Var = VarNames.size();
  VarNames.push_back(Name);
  VarKinds.push_back(VarKind::Loop);

  auto L = std::make_unique<Loop>();
  L->Var = Var;
  L->LowerBounds = std::move(Lbs);
  L->UpperBounds = std::move(Ubs);
  Loop *Raw = L.get();
  LoopsByVar.push_back(Raw);
  currentBody().push_back(Node{Raw, nullptr});
  AllLoops.push_back(std::move(L));
  OpenLoops.push_back(Raw);
  return Var;
}

void Program::endLoop() {
  assert(!OpenLoops.empty() && "no open loop");
  OpenLoops.pop_back();
}

Stmt &Program::addStmt(const std::string &Label, ArrayRef LHS,
                       ScalarExpr::Ptr RHS) {
  assert(!Finalized && "program is frozen");
  auto S = std::make_unique<Stmt>();
  S->Id = AllStmts.size();
  S->Label = Label;
  S->LHS = std::move(LHS);
  S->RHS = std::move(RHS);
  for (Loop *L : OpenLoops)
    S->LoopVars.push_back(L->Var);
  Stmt *Raw = S.get();
  currentBody().push_back(Node{nullptr, Raw});
  AllStmts.push_back(std::move(S));
  return *Raw;
}

namespace {

/// Walks the tree assigning 2d+1 schedule positions.
void assignSchedules(const std::vector<Node> &Body,
                     std::vector<unsigned> &Prefix) {
  unsigned Pos = 0;
  for (const Node &N : Body) {
    Prefix.push_back(Pos++);
    if (N.isLoop()) {
      assignSchedules(N.L->Body, Prefix);
    } else {
      N.S->Schedule = Prefix;
    }
    Prefix.pop_back();
  }
}

void extendExpr(AffineExpr &E, unsigned NumVars) { E.extendTo(NumVars); }

void extendScalar(ScalarExpr *E, unsigned NumVars);

void extendRef(ArrayRef &R, unsigned NumVars) {
  for (AffineExpr &I : R.Indices)
    extendExpr(I, NumVars);
}

void extendScalar(ScalarExpr *E, unsigned NumVars) {
  if (!E)
    return;
  if (E->getKind() == ExprKind::Load)
    extendRef(E->getRefMutable(), NumVars);
  extendScalar(E->getLHSMutable(), NumVars);
  extendScalar(E->getRHSMutable(), NumVars);
}

} // namespace

void Program::finalize() {
  assert(!Finalized && "finalize called twice");
  assert(OpenLoops.empty() && "unclosed loop at finalize");
  unsigned NV = VarNames.size();
  for (ArrayDecl &A : Arrays)
    for (AffineExpr &E : A.Extents)
      extendExpr(E, NV);
  for (auto &L : AllLoops) {
    for (AffineExpr &E : L->LowerBounds)
      extendExpr(E, NV);
    for (AffineExpr &E : L->UpperBounds)
      extendExpr(E, NV);
  }
  for (auto &S : AllStmts) {
    extendRef(S->LHS, NV);
    extendScalar(S->RHS.get(), NV);
  }
  std::vector<unsigned> Prefix;
  assignSchedules(TopLevel, Prefix);
  Finalized = true;
}

const Loop &Program::getLoopForVar(unsigned Var) const {
  assert(Var < LoopsByVar.size() && LoopsByVar[Var] &&
         "not a loop variable");
  return *LoopsByVar[Var];
}

namespace {

std::string boundListStr(const std::vector<AffineExpr> &Bounds,
                         const std::vector<std::string> &Names, bool IsMax) {
  if (Bounds.size() == 1)
    return Bounds[0].str(Names);
  std::string S = IsMax ? "max(" : "min(";
  for (unsigned I = 0; I < Bounds.size(); ++I) {
    if (I)
      S += ", ";
    S += Bounds[I].str(Names);
  }
  return S + ")";
}

std::string refStr(const ArrayRef &R, const Program &P) {
  std::string S = P.getArray(R.ArrayId).Name + "[";
  for (unsigned I = 0; I < R.Indices.size(); ++I) {
    if (I)
      S += ",";
    S += R.Indices[I].str(P.getVarNames());
  }
  return S + "]";
}

std::string exprStr(const ScalarExpr *E, const Program &P);

/// "(lhs op rhs)" for a binary expression.
std::string binaryStr(const ScalarExpr *E, const char *Op, const Program &P) {
  std::string S = "(";
  S += exprStr(E->getLHS(), P);
  S += Op;
  S += exprStr(E->getRHS(), P);
  S += ")";
  return S;
}

std::string exprStr(const ScalarExpr *E, const Program &P) {
  switch (E->getKind()) {
  case ExprKind::Number: {
    std::string S = std::to_string(E->getNumber());
    // Trim trailing zeros for readability.
    while (S.size() > 1 && S.back() == '0')
      S.pop_back();
    if (!S.empty() && S.back() == '.')
      S.pop_back();
    return S;
  }
  case ExprKind::Load:
    return refStr(E->getRef(), P);
  case ExprKind::Add:
    return binaryStr(E, " + ", P);
  case ExprKind::Sub:
    return binaryStr(E, " - ", P);
  case ExprKind::Mul:
    return binaryStr(E, " * ", P);
  case ExprKind::Div:
    return binaryStr(E, " / ", P);
  case ExprKind::Neg:
    return "(-" + exprStr(E->getLHS(), P) + ")";
  case ExprKind::Sqrt:
    return "sqrt(" + exprStr(E->getLHS(), P) + ")";
  }
  return "?";
}

void printBody(const std::vector<Node> &Body, const Program &P,
               std::string &Out, unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  for (const Node &N : Body) {
    if (N.isLoop()) {
      const Loop &L = *N.L;
      Out += Pad + "do " + P.getVarName(L.Var) + " = " +
             boundListStr(L.LowerBounds, P.getVarNames(), /*IsMax=*/true) +
             " .. " +
             boundListStr(L.UpperBounds, P.getVarNames(), /*IsMax=*/false) +
             "\n";
      printBody(L.Body, P, Out, Indent + 1);
    } else {
      const Stmt &S = *N.S;
      Out += Pad + S.Label + ": " + refStr(S.LHS, P) + " = " +
             exprStr(S.RHS.get(), P) + "\n";
    }
  }
}

} // namespace

std::string Program::str() const {
  std::string Out;
  printBody(TopLevel, *this, Out, 0);
  return Out;
}
