//===- DataShackle.cpp - Data shackles and their products -------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "core/DataShackle.h"

#include "support/ErrorHandling.h"

#include <cassert>

using namespace shackle;

DataShackle DataShackle::onStores(const Program &P, DataBlocking Blocking) {
  Expected<DataShackle> S = tryOnStores(P, std::move(Blocking));
  if (!S.ok())
    fatalError(S.diagnostic().Message.c_str());
  return std::move(S.get());
}

DataShackle DataShackle::onRefs(const Program &P, DataBlocking Blocking,
                                const std::vector<unsigned> &RefIndex) {
  assert(RefIndex.size() == P.getNumStmts() &&
         "need one reference choice per statement");
  Expected<DataShackle> S = tryOnRefs(P, std::move(Blocking), RefIndex);
  if (!S.ok())
    fatalError(S.diagnostic().Message.c_str());
  return std::move(S.get());
}

Expected<DataShackle> DataShackle::tryOnStores(const Program &P,
                                               DataBlocking Blocking) {
  DataShackle S;
  S.Blocking = std::move(Blocking);
  for (unsigned Id = 0; Id < P.getNumStmts(); ++Id) {
    const Stmt &St = P.getStmt(Id);
    if (St.LHS.ArrayId != S.Blocking.ArrayId)
      return Status::error(
          DiagCode::ShackleMismatch,
          "onStores: statement " + St.Label +
              " does not store to the blocked array " +
              P.getArray(S.Blocking.ArrayId).Name +
              "; use onRefs with an explicit (or dummy) reference");
    S.ShackledRefs.push_back(St.LHS);
  }
  return S;
}

Expected<DataShackle> DataShackle::tryOnRefs(
    const Program &P, DataBlocking Blocking,
    const std::vector<unsigned> &RefIndex) {
  DataShackle S;
  S.Blocking = std::move(Blocking);
  if (RefIndex.size() != P.getNumStmts())
    return Status::error(DiagCode::ShackleMismatch,
                         "onRefs: need one reference choice per statement (" +
                             std::to_string(RefIndex.size()) + " given, " +
                             std::to_string(P.getNumStmts()) + " needed)");
  for (unsigned Id = 0; Id < P.getNumStmts(); ++Id) {
    const Stmt &St = P.getStmt(Id);
    auto Refs = St.refs();
    if (RefIndex[Id] >= Refs.size())
      return Status::error(DiagCode::ShackleMismatch,
                           "onRefs: reference index " +
                               std::to_string(RefIndex[Id]) +
                               " out of range for statement " + St.Label +
                               " (" + std::to_string(Refs.size()) +
                               " references)");
    const ArrayRef &R = *Refs[RefIndex[Id]].first;
    if (R.ArrayId != S.Blocking.ArrayId)
      return Status::error(
          DiagCode::ShackleMismatch,
          "onRefs: chosen reference of statement " + St.Label +
              " does not target the blocked array " +
              P.getArray(S.Blocking.ArrayId).Name);
    S.ShackledRefs.push_back(R);
  }
  return S;
}

unsigned ShackleChain::numBlockDims() const {
  unsigned Total = 0;
  for (const DataShackle &F : Factors)
    Total += F.Blocking.Planes.size();
  return Total;
}

unsigned ShackleChain::numBlockDimsPrefix(unsigned NumFactors) const {
  if (NumFactors == 0 || NumFactors > Factors.size())
    NumFactors = Factors.size();
  unsigned Total = 0;
  for (unsigned I = 0; I < NumFactors; ++I)
    Total += Factors[I].Blocking.Planes.size();
  return Total;
}

std::vector<std::string> ShackleChain::blockDimNames() const {
  std::vector<std::string> Names;
  for (unsigned I = 0, E = numBlockDims(); I < E; ++I)
    Names.push_back(std::string("b").append(std::to_string(I + 1)));
  return Names;
}

ConstraintRow shackle::mapAffineToSpace(const AffineExpr &E, const Program &P,
                                        const std::vector<int> &VarDims,
                                        unsigned SpaceSize) {
  ConstraintRow Row(SpaceSize + 1, 0);
  for (unsigned V = 0; V < P.getNumVars(); ++V) {
    int64_t C = E.getCoeff(V);
    if (C == 0)
      continue;
    if (VarDims[V] < 0)
      fatalError("affine expression uses a variable not present in the "
                 "target space");
    Row[VarDims[V]] += C;
  }
  Row[SpaceSize] = E.getConstant();
  return Row;
}

void shackle::addBlockLinkConstraints(Polyhedron &Poly, const Program &P,
                                      const DataShackle &Factor,
                                      unsigned Plane, unsigned StmtId,
                                      unsigned BlockDim,
                                      const std::vector<int> &VarDims) {
  const CuttingPlaneSet &PS = Factor.Blocking.Planes[Plane];
  const ArrayRef &Ref = Factor.ShackledRefs[StmtId];
  assert(PS.Normal.size() == Ref.Indices.size() &&
         "cutting plane normal arity mismatch");

  // e = Normal . indices, as an affine expression over program variables.
  AffineExpr E = AffineExpr::constant(P.getNumVars(), 0);
  for (unsigned D = 0; D < PS.Normal.size(); ++D)
    if (PS.Normal[D] != 0)
      E = E + Ref.Indices[D] * PS.Normal[D];

  ConstraintRow ERow = mapAffineToSpace(E, P, VarDims, Poly.getNumVars());
  int64_t B = PS.BlockSize;
  int64_t ZSign = PS.Reversed ? -1 : 1;

  // 0 <= e - B * (ZSign * z) <= B - 1.
  ConstraintRow Lo = ERow;
  Lo[BlockDim] -= B * ZSign;
  ConstraintRow Hi(Poly.getNumVars() + 1, 0);
  for (unsigned I = 0; I <= Poly.getNumVars(); ++I)
    Hi[I] = -Lo[I];
  Hi.back() += B - 1;
  Poly.addInequality(std::move(Lo));
  Poly.addInequality(std::move(Hi));
}

void shackle::addDomainConstraints(Polyhedron &Poly, const Program &P,
                                   const Stmt &S,
                                   const std::vector<int> &VarDims) {
  for (unsigned K = 0; K < S.LoopVars.size(); ++K) {
    const Loop &L = P.getLoopForVar(S.LoopVars[K]);
    int VDim = VarDims[S.LoopVars[K]];
    assert(VDim >= 0 && "loop variable not mapped into the space");
    for (const AffineExpr &Lb : L.LowerBounds) {
      // v - lb >= 0.
      ConstraintRow Row =
          mapAffineToSpace(Lb * -1, P, VarDims, Poly.getNumVars());
      Row[VDim] += 1;
      Poly.addInequality(std::move(Row));
    }
    for (const AffineExpr &Ub : L.UpperBounds) {
      // ub - v >= 0.
      ConstraintRow Row = mapAffineToSpace(Ub, P, VarDims, Poly.getNumVars());
      Row[VDim] -= 1;
      Poly.addInequality(std::move(Row));
    }
  }
}

std::string shackle::describeChain(const Program &P,
                                   const ShackleChain &Chain) {
  std::string Out;
  for (unsigned FI = 0; FI < Chain.Factors.size(); ++FI) {
    const DataShackle &F = Chain.Factors[FI];
    if (FI)
      Out += " x ";
    Out += "block " + P.getArray(F.Blocking.ArrayId).Name + " ";
    for (unsigned Pl = 0; Pl < F.Blocking.Planes.size(); ++Pl) {
      const CuttingPlaneSet &PS = F.Blocking.Planes[Pl];
      if (Pl)
        Out += "x";
      Out += std::to_string(PS.BlockSize);
      if (PS.Reversed)
        Out += "r";
    }
    Out += " (";
    for (unsigned Pl = 0; Pl < F.Blocking.Planes.size(); ++Pl) {
      const CuttingPlaneSet &PS = F.Blocking.Planes[Pl];
      if (Pl)
        Out += ",";
      std::string Normal;
      bool Axis = false;
      for (unsigned D = 0; D < PS.Normal.size(); ++D) {
        if (PS.Normal[D] == 0)
          continue;
        if (!Normal.empty())
          Axis = false;
        else
          Axis = PS.Normal[D] == 1;
        if (!Normal.empty())
          Normal += "+";
        if (PS.Normal[D] != 1)
          Normal += std::to_string(PS.Normal[D]) + "*";
        Normal.append("d").append(std::to_string(D));
      }
      if (Axis && Normal == "d0")
        Out += "rows";
      else if (Axis && Normal == "d1")
        Out += "cols";
      else
        Out += Normal;
    }
    Out += "):";
    for (unsigned Id = 0; Id < F.ShackledRefs.size(); ++Id) {
      const ArrayRef &R = F.ShackledRefs[Id];
      Out += " " + P.getStmt(Id).Label + "=" +
             P.getArray(R.ArrayId).Name + "[";
      for (unsigned D = 0; D < R.Indices.size(); ++D) {
        if (D)
          Out += ",";
        Out += R.Indices[D].str(P.getVarNames());
      }
      Out += "]";
    }
  }
  return Out;
}

void shackle::addParamContext(Polyhedron &Poly, const Program &P,
                              const std::vector<int> &VarDims) {
  for (unsigned V = 0; V < P.getNumParams(); ++V) {
    if (VarDims[V] < 0)
      continue;
    ConstraintRow Row(Poly.getNumVars() + 1, 0);
    Row[VarDims[V]] = 1;
    Row.back() = -P.getParamMin(V);
    Poly.addInequality(std::move(Row));
  }
}
