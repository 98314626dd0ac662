//===- Interpreter.cpp - Direct execution of generated code ------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "support/ErrorHandling.h"
#include "support/MathExtras.h"

#include <cassert>
#include <cmath>
#include <cstring>

using namespace shackle;

ArrayAddressing::ArrayAddressing(const Program &P,
                                 std::vector<int64_t> Params)
    : Prog(&P), ParamValues(std::move(Params)) {
  assert(ParamValues.size() == P.getNumParams() &&
         "one value per parameter required");
  std::vector<int64_t> VarValues(P.getNumVars(), 0);
  for (unsigned V = 0; V < P.getNumParams(); ++V)
    VarValues[V] = ParamValues[V];

  for (unsigned Id = 0; Id < P.getNumArrays(); ++Id) {
    const ArrayDecl &A = P.getArray(Id);
    std::vector<int64_t> Ext;
    for (const AffineExpr &E : A.Extents)
      Ext.push_back(E.evaluate(VarValues));
    int64_t Size = 1;
    switch (A.Layout) {
    case LayoutKind::RowMajor:
    case LayoutKind::ColMajor:
      for (int64_t E : Ext) {
        assert(E >= 0 && "negative array extent");
        Size *= E;
      }
      break;
    case LayoutKind::BandLower: {
      assert(Ext.size() == 2 && "band storage is for matrices");
      int64_t Bw = ParamValues[A.BandParam];
      Size = (Bw + 1) * Ext[1];
      break;
    }
    case LayoutKind::TiledRowMajor: {
      assert(Ext.size() == 2 && "tiled storage is for matrices");
      int64_t TR = ceilDiv(Ext[0], A.TileRows);
      int64_t TC = ceilDiv(Ext[1], A.TileCols);
      Size = TR * TC * A.TileRows * A.TileCols;
      break;
    }
    }
    Sizes.push_back(Size);
    Extents.push_back(std::move(Ext));
  }
}

ProgramInstance::ProgramInstance(const Program &P,
                                 std::vector<int64_t> Params)
    : ArrayAddressing(P, std::move(Params)) {
  for (unsigned Id = 0; Id < P.getNumArrays(); ++Id)
    Buffers.emplace_back(static_cast<size_t>(size(Id)), 0.0);
}

int64_t ArrayAddressing::offset(unsigned ArrayId, const int64_t *Idx) const {
  const ArrayDecl &A = Prog->getArray(ArrayId);
  const std::vector<int64_t> &Ext = Extents[ArrayId];
  switch (A.Layout) {
  case LayoutKind::RowMajor: {
    int64_t Off = 0;
    for (unsigned D = 0; D < Ext.size(); ++D) {
      assert(Idx[D] >= 0 && Idx[D] < Ext[D] && "index out of bounds");
      Off = Off * Ext[D] + Idx[D];
    }
    return Off;
  }
  case LayoutKind::ColMajor: {
    int64_t Off = 0;
    for (unsigned D = Ext.size(); D-- > 0;) {
      assert(Idx[D] >= 0 && Idx[D] < Ext[D] && "index out of bounds");
      Off = Off * Ext[D] + Idx[D];
    }
    return Off;
  }
  case LayoutKind::BandLower: {
    int64_t Bw = ParamValues[A.BandParam];
    int64_t I = Idx[0], J = Idx[1];
    assert(I - J >= 0 && I - J <= Bw && "access outside the stored band");
    return (I - J) + J * (Bw + 1);
  }
  case LayoutKind::TiledRowMajor: {
    int64_t I = Idx[0], J = Idx[1];
    assert(I >= 0 && I < Ext[0] && J >= 0 && J < Ext[1] &&
           "index out of bounds");
    int64_t TC = ceilDiv(Ext[1], A.TileCols);
    int64_t Tile = (I / A.TileRows) * TC + (J / A.TileCols);
    return (Tile * A.TileRows + I % A.TileRows) * A.TileCols +
           J % A.TileCols;
  }
  }
  fatalError("unknown layout");
}

void ProgramInstance::fillRandom(uint64_t Seed, double Lo, double Hi) {
  // SplitMix64: deterministic across platforms.
  uint64_t X = Seed ? Seed : 0x9e3779b97f4a7c15ULL;
  auto Next = [&X]() {
    X += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  };
  for (std::vector<double> &Buf : Buffers)
    for (double &V : Buf)
      V = Lo + (Hi - Lo) * (static_cast<double>(Next() >> 11) * 0x1.0p-53);
}

bool ProgramInstance::bitwiseEqual(const ProgramInstance &Other) const {
  assert(Buffers.size() == Other.Buffers.size());
  for (unsigned Id = 0; Id < Buffers.size(); ++Id) {
    assert(Buffers[Id].size() == Other.Buffers[Id].size());
    if (!Buffers[Id].empty() &&
        std::memcmp(Buffers[Id].data(), Other.Buffers[Id].data(),
                    Buffers[Id].size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

double ProgramInstance::maxAbsDifference(const ProgramInstance &Other) const {
  assert(Buffers.size() == Other.Buffers.size());
  double Max = 0;
  for (unsigned Id = 0; Id < Buffers.size(); ++Id) {
    assert(Buffers[Id].size() == Other.Buffers[Id].size());
    for (size_t I = 0; I < Buffers[Id].size(); ++I)
      Max = std::max(Max, std::fabs(Buffers[Id][I] - Other.Buffers[Id][I]));
  }
  return Max;
}

namespace {

/// Physical offset of \p R with the given program-variable values.
int64_t refOffsetIn(const ProgramInstance &Inst, const ArrayRef &R,
                    const std::vector<int64_t> &VarValues) {
  int64_t Idx[8];
  assert(R.Indices.size() <= 8 && "array rank too large");
  for (unsigned D = 0; D < R.Indices.size(); ++D)
    Idx[D] = R.Indices[D].evaluate(VarValues);
  return Inst.offset(R.ArrayId, Idx);
}

/// Evaluates a scalar expression with the given program-variable values.
double evalScalarIn(ProgramInstance &Inst, const ScalarExpr *E,
                    const std::vector<int64_t> &VarValues,
                    const TraceFn *Trace) {
  switch (E->getKind()) {
  case ExprKind::Number:
    return E->getNumber();
  case ExprKind::Load: {
    int64_t Off = refOffsetIn(Inst, E->getRef(), VarValues);
    if (Trace)
      (*Trace)(E->getRef().ArrayId, Off, /*IsWrite=*/false);
    return Inst.buffer(E->getRef().ArrayId)[Off];
  }
  case ExprKind::Add:
    return evalScalarIn(Inst, E->getLHS(), VarValues, Trace) +
           evalScalarIn(Inst, E->getRHS(), VarValues, Trace);
  case ExprKind::Sub:
    return evalScalarIn(Inst, E->getLHS(), VarValues, Trace) -
           evalScalarIn(Inst, E->getRHS(), VarValues, Trace);
  case ExprKind::Mul:
    return evalScalarIn(Inst, E->getLHS(), VarValues, Trace) *
           evalScalarIn(Inst, E->getRHS(), VarValues, Trace);
  case ExprKind::Div:
    return evalScalarIn(Inst, E->getLHS(), VarValues, Trace) /
           evalScalarIn(Inst, E->getRHS(), VarValues, Trace);
  case ExprKind::Neg:
    return -evalScalarIn(Inst, E->getLHS(), VarValues, Trace);
  case ExprKind::Sqrt:
    return std::sqrt(evalScalarIn(Inst, E->getLHS(), VarValues, Trace));
  }
  fatalError("unknown scalar expression kind");
}

class Executor {
public:
  /// Whole-nest execution; a null \p Inst only counts instances.
  Executor(const LoopNest &Nest, const ArrayAddressing &Addr,
           ProgramInstance *Inst, const TraceFn *Trace)
      : Nest(Nest), Addr(Addr), Inst(Inst), Trace(Trace),
        DimValues(Nest.NumDims, 0),
        StmtVarValues(Nest.Prog->getNumVars(), 0) {
    for (unsigned V = 0; V < Nest.NumParams; ++V) {
      DimValues[V] = Addr.paramValue(V);
      StmtVarValues[V] = Addr.paramValue(V);
    }
  }

  /// Subtree execution: start from caller-provided dimension values (the
  /// dims bound above the subtree; the rest are scratch). When \p Writes is
  /// non-null the walk is a dry run that only reports each instance's store
  /// address and \p Inst may be null: no storage is touched.
  Executor(const LoopNest &Nest, const ArrayAddressing &Addr,
           ProgramInstance *Inst, const TraceFn *Trace,
           std::vector<int64_t> InitialDimValues,
           const WriteSink *Writes = nullptr,
           const StoreCheckFn *Check = nullptr)
      : Nest(Nest), Addr(Addr), Inst(Inst), Trace(Trace), Writes(Writes),
        Check(Check), DimValues(std::move(InitialDimValues)),
        StmtVarValues(Nest.Prog->getNumVars(), 0) {
    assert(DimValues.size() == Nest.NumDims && "one value per dimension");
    for (unsigned V = 0; V < Nest.NumParams; ++V)
      StmtVarValues[V] = Addr.paramValue(V);
  }

  void run() {
    for (const ASTNodePtr &N : Nest.Roots)
      exec(*N);
  }

  void runSubtree(const ASTNode &Root) { exec(Root); }

  uint64_t instanceCount() const { return Instances; }

private:
  int64_t evalBound(const BoundExpr &B) {
    int64_t V = B.Expr.evaluate(DimValues);
    if (B.Divisor == 1)
      return V;
    return B.IsCeil ? ceilDiv(V, B.Divisor) : floorDiv(V, B.Divisor);
  }

  bool evalConds(const ASTNode &N) {
    for (const ConstraintRow &Row : N.EqConds)
      if (evalRow(Row) != 0)
        return false;
    for (const ConstraintRow &Row : N.IneqConds)
      if (evalRow(Row) < 0)
        return false;
    return true;
  }

  int64_t evalRow(const ConstraintRow &Row) {
    int64_t V = Row.back();
    for (unsigned I = 0; I + 1 < Row.size(); ++I)
      if (Row[I] != 0)
        V += Row[I] * DimValues[I];
    return V;
  }

  double evalScalar(const ScalarExpr *E) {
    switch (E->getKind()) {
    case ExprKind::Number:
      return E->getNumber();
    case ExprKind::Load: {
      int64_t Off = refOffset(E->getRef());
      if (Trace)
        (*Trace)(E->getRef().ArrayId, Off, /*IsWrite=*/false);
      return Inst->buffer(E->getRef().ArrayId)[Off];
    }
    case ExprKind::Add:
      return evalScalar(E->getLHS()) + evalScalar(E->getRHS());
    case ExprKind::Sub:
      return evalScalar(E->getLHS()) - evalScalar(E->getRHS());
    case ExprKind::Mul:
      return evalScalar(E->getLHS()) * evalScalar(E->getRHS());
    case ExprKind::Div:
      return evalScalar(E->getLHS()) / evalScalar(E->getRHS());
    case ExprKind::Neg:
      return -evalScalar(E->getLHS());
    case ExprKind::Sqrt:
      return std::sqrt(evalScalar(E->getLHS()));
    }
    fatalError("unknown scalar expression kind");
  }

  int64_t refOffset(const ArrayRef &R) {
    int64_t Idx[8];
    assert(R.Indices.size() <= 8 && "array rank too large");
    for (unsigned D = 0; D < R.Indices.size(); ++D)
      Idx[D] = R.Indices[D].evaluate(StmtVarValues);
    return Addr.offset(R.ArrayId, Idx);
  }

  void execInstance(const ASTNode &N) {
    ++Instances;
    if (!Inst && !Writes)
      return; // Counting only.
    const Stmt &S = *N.S;
    for (unsigned K = 0; K < N.VarMap.size(); ++K)
      StmtVarValues[S.LoopVars[K]] = DimValues[N.VarMap[K]];
    if (Writes) {
      (*Writes)(S.LHS.ArrayId, refOffset(S.LHS));
      return;
    }
    double Value = evalScalar(S.RHS.get());
    int64_t Off = refOffset(S.LHS);
    if (Trace)
      (*Trace)(S.LHS.ArrayId, Off, /*IsWrite=*/true);
    Inst->buffer(S.LHS.ArrayId)[Off] = Value;
    if (Check)
      (*Check)(S.LHS.ArrayId, Off, Value);
  }

  void exec(const ASTNode &N) {
    switch (N.Kind) {
    case ASTKind::Loop: {
      int64_t Lo = evalBound(N.Lbs[0]);
      for (unsigned I = 1; I < N.Lbs.size(); ++I)
        Lo = std::max(Lo, evalBound(N.Lbs[I]));
      int64_t Hi = evalBound(N.Ubs[0]);
      for (unsigned I = 1; I < N.Ubs.size(); ++I)
        Hi = std::min(Hi, evalBound(N.Ubs[I]));
      for (int64_t V = Lo; V <= Hi; ++V) {
        DimValues[N.Dim] = V;
        for (const ASTNodePtr &C : N.Body)
          exec(*C);
      }
      return;
    }
    case ASTKind::Let:
      DimValues[N.Dim] = evalBound(N.Lbs[0]);
      for (const ASTNodePtr &C : N.Body)
        exec(*C);
      return;
    case ASTKind::If:
      if (!evalConds(N))
        return;
      for (const ASTNodePtr &C : N.Body)
        exec(*C);
      return;
    case ASTKind::Instance:
      execInstance(N);
      return;
    }
  }

  const LoopNest &Nest;
  const ArrayAddressing &Addr;
  ProgramInstance *Inst;
  const TraceFn *Trace;
  const WriteSink *Writes = nullptr;
  const StoreCheckFn *Check = nullptr;
  uint64_t Instances = 0;
  std::vector<int64_t> DimValues;
  std::vector<int64_t> StmtVarValues;
};

} // namespace

void shackle::runLoopNest(const LoopNest &Nest, ProgramInstance &Inst,
                          const TraceFn *Trace) {
  Executor E(Nest, Inst, &Inst, Trace);
  E.run();
}

void shackle::runLoopNestSubtree(const LoopNest &Nest, const ASTNode &Root,
                                 const std::vector<int64_t> &DimValues,
                                 ProgramInstance &Inst, const TraceFn *Trace,
                                 const StoreCheckFn *Check) {
  Executor E(Nest, Inst, &Inst, Trace, DimValues, /*Writes=*/nullptr, Check);
  E.runSubtree(Root);
}

void shackle::collectSubtreeWrites(const LoopNest &Nest, const ASTNode &Root,
                                   const std::vector<int64_t> &DimValues,
                                   const ArrayAddressing &Addr,
                                   const WriteSink &Sink) {
  Executor E(Nest, Addr, /*Inst=*/nullptr, nullptr, DimValues, &Sink);
  E.runSubtree(Root);
}

uint64_t shackle::countExecutedInstances(const LoopNest &Nest,
                                         const ProgramInstance &Inst) {
  Executor E(Nest, Inst, /*Inst=*/nullptr, nullptr);
  E.run();
  return E.instanceCount();
}

void shackle::executeStatementInstance(ProgramInstance &Inst, const Stmt &S,
                                       const std::vector<int64_t> &IterValues,
                                       const TraceFn *Trace) {
  assert(IterValues.size() == S.getDepth() && "wrong iteration arity");
  const Program &P = Inst.program();
  std::vector<int64_t> VarValues(P.getNumVars(), 0);
  for (unsigned V = 0; V < P.getNumParams(); ++V)
    VarValues[V] = Inst.paramValue(V);
  for (unsigned K = 0; K < S.getDepth(); ++K)
    VarValues[S.LoopVars[K]] = IterValues[K];
  double Value = evalScalarIn(Inst, S.RHS.get(), VarValues, Trace);
  int64_t Off = refOffsetIn(Inst, S.LHS, VarValues);
  if (Trace)
    (*Trace)(S.LHS.ArrayId, Off, /*IsWrite=*/true);
  Inst.buffer(S.LHS.ArrayId)[Off] = Value;
}
