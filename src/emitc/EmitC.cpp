//===- EmitC.cpp - C++ source emission for generated code --------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "emitc/EmitC.h"

#include "emitc/SimdMark.h"
#include "support/ErrorHandling.h"
#include "support/Writer.h"

#include <cassert>
#include <cstdio>
#include <unordered_map>

using namespace shackle;

namespace {

/// Renders an affine expression over scan dimensions as a C expression.
std::string cAffine(const AffineExpr &E,
                    const std::vector<std::string> &DimNames) {
  std::string S;
  bool First = true;
  for (unsigned V = 0; V < E.getNumVars(); ++V) {
    int64_t C = E.getCoeff(V);
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
    S += DimNames[V];
    First = false;
  }
  int64_t K = E.getConstant();
  if (First)
    return std::to_string(K) + "L";
  if (K > 0)
    S += " + " + std::to_string(K);
  else if (K < 0)
    S += " - " + std::to_string(-K);
  return S;
}

std::string cBound(const BoundExpr &B,
                   const std::vector<std::string> &DimNames) {
  std::string Inner = cAffine(B.Expr, DimNames);
  if (B.Divisor == 1)
    return Inner;
  return std::string(B.IsCeil ? "shk_ceildiv(" : "shk_floordiv(") + Inner +
         ", " + std::to_string(B.Divisor) + ")";
}

std::string cBoundList(const std::vector<BoundExpr> &Bs,
                       const std::vector<std::string> &DimNames, bool IsMax) {
  assert(!Bs.empty());
  std::string S = cBound(Bs[0], DimNames);
  for (unsigned I = 1; I < Bs.size(); ++I)
    S = std::string(IsMax ? "shk_max(" : "shk_min(") + S + ", " +
        cBound(Bs[I], DimNames) + ")";
  return S;
}

std::string cRow(const ConstraintRow &Row,
                 const std::vector<std::string> &DimNames) {
  AffineExpr E = AffineExpr::constant(DimNames.size(), Row.back());
  for (unsigned V = 0; V + 1 < Row.size(); ++V)
    E.setCoeff(V, Row[V]);
  return cAffine(E, DimNames);
}

/// Emits statement bodies: array addressing and scalar expressions. \p Sqrt
/// names the square root function (the native unit includes no header that
/// declares std::sqrt).
class StmtEmitter {
public:
  StmtEmitter(const Program &P, const std::vector<std::string> &DimNames,
              const char *Sqrt = "std::sqrt")
      : P(P), DimNames(DimNames), Sqrt(Sqrt) {}

  /// Sets the variable renaming for the current statement instance.
  void bind(const Stmt &S, const std::vector<unsigned> &VarMap) {
    VarNamesC.assign(P.getNumVars(), "");
    for (unsigned V = 0; V < P.getNumParams(); ++V)
      VarNamesC[V] = P.getVarName(V);
    for (unsigned K = 0; K < VarMap.size(); ++K)
      VarNamesC[S.LoopVars[K]] = DimNames[VarMap[K]];
  }

  std::string refExpr(const ArrayRef &R) const {
    return "a" + std::to_string(R.ArrayId) + "[" + offExpr(R) + "]";
  }

  /// The linearized offset of \p R as a C expression (no array wrapper).
  std::string offExpr(const ArrayRef &R) const {
    const ArrayDecl &A = P.getArray(R.ArrayId);
    std::string Off;
    switch (A.Layout) {
    case LayoutKind::RowMajor: {
      for (unsigned D = 0; D < R.Indices.size(); ++D) {
        std::string Idx = "(" + cAffine(R.Indices[D], VarNamesC) + ")";
        if (D == 0)
          Off = Idx;
        else
          Off = "(" + Off + ")*(" + cAffine(A.Extents[D], VarNamesC) + ") + " +
                Idx;
      }
      break;
    }
    case LayoutKind::ColMajor: {
      for (unsigned D = R.Indices.size(); D-- > 0;) {
        std::string Idx = "(" + cAffine(R.Indices[D], VarNamesC) + ")";
        if (D + 1 == R.Indices.size())
          Off = Idx;
        else
          Off = "(" + Off + ")*(" + cAffine(A.Extents[D], VarNamesC) + ") + " +
                Idx;
      }
      break;
    }
    case LayoutKind::BandLower: {
      assert(R.Indices.size() == 2 && "band storage is for matrices");
      std::string I = cAffine(R.Indices[0], VarNamesC);
      std::string J = cAffine(R.Indices[1], VarNamesC);
      std::string Bw = P.getVarName(A.BandParam);
      Off = "((" + I + ") - (" + J + ")) + (" + J + ")*(" + Bw + " + 1)";
      break;
    }
    case LayoutKind::TiledRowMajor: {
      // Physically tiled storage: indices are non-negative, so truncating
      // C++ division and modulo match floor semantics.
      assert(R.Indices.size() == 2 && "tiled storage is for matrices");
      std::string I = "(" + cAffine(R.Indices[0], VarNamesC) + ")";
      std::string J = "(" + cAffine(R.Indices[1], VarNamesC) + ")";
      std::string TR = std::to_string(A.TileRows);
      std::string TC = std::to_string(A.TileCols);
      std::string GridCols = "shk_ceildiv(" +
                             cAffine(A.Extents[1], VarNamesC) + ", " + TC +
                             ")";
      Off = "(((" + I + "/" + TR + ")*" + GridCols + " + " + J + "/" + TC +
            ")*" + TR + " + " + I + "%" + TR + ")*" + TC + " + " + J + "%" +
            TC;
      break;
    }
    }
    return Off;
  }

  std::string scalarExpr(const ScalarExpr *E) const {
    switch (E->getKind()) {
    case ExprKind::Number: {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", E->getNumber());
      return Buf;
    }
    case ExprKind::Load:
      return refExpr(E->getRef());
    case ExprKind::Add:
      return "(" + scalarExpr(E->getLHS()) + " + " + scalarExpr(E->getRHS()) +
             ")";
    case ExprKind::Sub:
      return "(" + scalarExpr(E->getLHS()) + " - " + scalarExpr(E->getRHS()) +
             ")";
    case ExprKind::Mul:
      return "(" + scalarExpr(E->getLHS()) + " * " + scalarExpr(E->getRHS()) +
             ")";
    case ExprKind::Div:
      return "(" + scalarExpr(E->getLHS()) + " / " + scalarExpr(E->getRHS()) +
             ")";
    case ExprKind::Neg:
      return "(-" + scalarExpr(E->getLHS()) + ")";
    case ExprKind::Sqrt:
      return std::string(Sqrt) + "(" + scalarExpr(E->getLHS()) + ")";
    }
    fatalError("unknown scalar expression kind");
  }

private:
  const Program &P;
  const std::vector<std::string> &DimNames;
  const char *Sqrt;
  std::vector<std::string> VarNamesC;
};

/// The loop order of one nest: the pairs emitted interchanged and the
/// innermost loops emitted under `omp simd`.
struct LoopPlan {
  InterchangeMap Swaps;
  SimdMarks Simd;
};

LoopPlan planLoops(const LoopNest &Nest) {
  LoopPlan L;
  L.Swaps = planInterchanges(Nest);
  L.Simd = planSimdLoops(Nest, L.Swaps);
  return L;
}

/// Emission context: whether dense triple loops may be routed through the
/// native gemm hook, the nest's loop plan, and the counts of what was
/// emitted.
struct EmitCtx {
  bool GemmHooks = false;
  const LoopPlan *Loops;
  NativeEmitStats *Counts;
};

/// A matched dense rectangular loop nest computing C += A * B. The three
/// element roles may each be strip-mined (a tile loop enclosing the element
/// loop); the matcher merges such a pair into one contiguous range, so a
/// multi-level shackled block collapses into a single full-size
/// micro-kernel call instead of one call per innermost tile.
struct GemmMatch {
  const Stmt *S = nullptr;
  const std::vector<unsigned> *VarMap = nullptr;
  const ArrayRef *C = nullptr;
  const ArrayRef *A = nullptr; ///< Operand whose offset ignores role j.
  const ArrayRef *B = nullptr; ///< Operand whose offset ignores role i.
  unsigned Vi = 0, Vj = 0, Vk = 0; ///< Element dims of the three roles.
  /// Merged [lb, ub] range per role as C expressions over dims declared at
  /// the call site (never over chain loops or let bindings).
  std::string ILb, IUb, JLb, JUb, KLb, KUb;
};

/// True when any index of \p R depends on scanning dimension \p Dim.
bool refDependsOn(const ArrayRef &R, const Stmt &S,
                  const std::vector<unsigned> &VarMap, unsigned NumDims,
                  unsigned NumParams, unsigned Dim) {
  for (const AffineExpr &I : R.Indices)
    if (mapToScan(I, S, VarMap, NumDims, NumParams).getCoeff(Dim) != 0)
      return true;
  return false;
}

/// Applies let bindings (dim -> affine value, values already fully
/// substituted) to an expression over scanning dims.
AffineExpr substLets(AffineExpr E,
                     const std::vector<std::pair<unsigned, AffineExpr>> &Lets) {
  for (const auto &[D, Val] : Lets) {
    int64_t C = E.getCoeff(D);
    if (C == 0)
      continue;
    E.setCoeff(D, 0);
    E = E + Val * C;
  }
  return E;
}

/// Matches the subtree rooted at \p N against a dense rectangular loop nest
/// whose body is exactly  C[..] = C[..] + A[..]*B[..]  over three distinct
/// arrays with affine (non-tiled) layouts. The nest may be a perfect chain
/// of loops and lets with up to one strip-mine level per role: an element
/// loop  e = c*p .. min(c*p + c - 1, clamps)  under its tile loop p covers
/// the contiguous range [c*p_lb + r, min(c*p_ub + r + c - 1, clamps)], so
/// the pair merges into one micro-kernel dimension — a two-level shackled
/// block becomes a single full-size gemm call. Per-element summation stays
/// ascending in k either way (tile and element k loops both ascend), so the
/// merge is bitwise-neutral. Rectangularity and the write/read role split
/// are checked structurally here; stride and shape suitability for the
/// micro-kernel are checked by runtime guards in the emitted code, with the
/// plain loops as the else branch.
bool matchGemm(const ASTNode &N, const LoopNest &Nest, GemmMatch &M) {
  const Program &P = *Nest.Prog;
  const std::vector<std::string> &Dims = Nest.DimNames;
  unsigned ND = Nest.NumDims, NP = Nest.NumParams;

  // 1. A perfect chain of loops and lets ending at a single statement.
  std::vector<const ASTNode *> Loops;
  std::vector<std::pair<unsigned, AffineExpr>> Lets;
  const ASTNode *Cur = &N;
  while (Cur->Kind == ASTKind::Loop || Cur->Kind == ASTKind::Let) {
    if (Cur->Kind == ASTKind::Loop) {
      Loops.push_back(Cur);
    } else {
      if (Cur->Lbs[0].Divisor != 1)
        return false;
      Lets.emplace_back(Cur->Dim, substLets(Cur->Lbs[0].Expr, Lets));
    }
    if (Cur->Body.size() != 1)
      return false;
    Cur = Cur->Body[0].get();
  }
  if (Cur->Kind != ASTKind::Instance || Loops.size() < 3)
    return false;
  const ASTNode *Inst = Cur;

  // 2. The statement must be the accumulation shape.
  const Stmt &S = *Inst->S;
  const ScalarExpr *RHS = S.RHS.get();
  if (RHS->getKind() != ExprKind::Add)
    return false;
  const ScalarExpr *Acc = RHS->getLHS(), *Mul = RHS->getRHS();
  if (Acc->getKind() != ExprKind::Load)
    std::swap(Acc, Mul);
  if (Acc->getKind() != ExprKind::Load || Mul->getKind() != ExprKind::Mul)
    return false;
  if (!(Acc->getRef() == S.LHS)) // accumulation: the load mirrors the store
    return false;
  const ScalarExpr *X = Mul->getLHS(), *Y = Mul->getRHS();
  if (X->getKind() != ExprKind::Load || Y->getKind() != ExprKind::Load)
    return false;
  const ArrayRef &C = S.LHS, &RX = X->getRef(), &RY = Y->getRef();
  // In-place updates would change the read order under a BLAS call.
  if (RX.ArrayId == C.ArrayId || RY.ArrayId == C.ArrayId)
    return false;
  for (const ArrayRef *R : {&C, &RX, &RY})
    if (P.getArray(R->ArrayId).Layout == LayoutKind::TiledRowMajor)
      return false;

  // 3. Role classification over the chain's loop dims. The references must
  // address through element dims only: never through a let binding or a
  // tile loop (both are out of scope at the merged call site).
  auto IsChainDim = [&](unsigned D) {
    for (const ASTNode *L : Loops)
      if (L->Dim == D)
        return true;
    return false;
  };
  auto IsLetDim = [&](unsigned D) {
    for (const auto &L : Lets)
      if (L.first == D)
        return true;
    return false;
  };
  for (const ArrayRef *R : {&C, &RX, &RY})
    for (const AffineExpr &I : R->Indices) {
      AffineExpr E = mapToScan(I, S, Inst->VarMap, ND, NP);
      for (unsigned O = 0; O < ND; ++O)
        if (E.getCoeff(O) != 0 && IsLetDim(O))
          return false;
    }
  auto DepOn = [&](const ArrayRef &R, unsigned Dim) {
    return refDependsOn(R, S, Inst->VarMap, ND, NP, Dim);
  };
  // Role k is the one element dim the store does not see; roles i/j are
  // the other two (orientation is resolved by the runtime guards).
  std::vector<unsigned> Elem;
  for (const ASTNode *L : Loops)
    if (DepOn(C, L->Dim) || DepOn(RX, L->Dim) || DepOn(RY, L->Dim))
      Elem.push_back(L->Dim);
  if (Elem.size() != 3)
    return false;
  int KIdx = -1;
  for (int I = 0; I < 3; ++I)
    if (!DepOn(C, Elem[I])) {
      if (KIdx >= 0)
        return false; // store sees only one dim: not a gemm write
      KIdx = I;
    }
  if (KIdx < 0)
    return false; // store depends on the reduction dim
  unsigned Vk = Elem[KIdx];
  unsigned Vi = Elem[(KIdx + 1) % 3], Vj = Elem[(KIdx + 2) % 3];
  // Distinct (i, j) must address distinct elements of C: with the affine
  // layouts above, it suffices that no single index mixes both roles.
  for (const AffineExpr &I : C.Indices) {
    AffineExpr E = mapToScan(I, S, Inst->VarMap, ND, NP);
    if (E.getCoeff(Vi) != 0 && E.getCoeff(Vj) != 0)
      return false;
  }
  // Operand A pairs with role i, operand B with role j.
  const ArrayRef *A = nullptr, *B = nullptr;
  if (!DepOn(RX, Vj) && !DepOn(RY, Vi)) {
    A = &RX;
    B = &RY;
  } else if (!DepOn(RY, Vj) && !DepOn(RX, Vi)) {
    A = &RY;
    B = &RX;
  } else {
    return false;
  }

  // 4. Merge each role's range, seeing through one strip-mine level.
  auto LoopFor = [&](unsigned D) -> const ASTNode * {
    for (const ASTNode *L : Loops)
      if (L->Dim == D)
        return L;
    return nullptr;
  };
  auto SubstBounds = [&](const std::vector<BoundExpr> &In) {
    std::vector<BoundExpr> Out;
    Out.reserve(In.size());
    for (const BoundExpr &BE : In)
      Out.push_back({substLets(BE.Expr, Lets), BE.Divisor, BE.IsCeil});
    return Out;
  };
  std::vector<unsigned> Used = {Vi, Vj, Vk}; // chain dims accounted for
  auto MergeRole = [&](unsigned D, std::string &LbS, std::string &UbS) {
    std::vector<BoundExpr> Lbs = SubstBounds(LoopFor(D)->Lbs);
    std::vector<BoundExpr> Ubs = SubstBounds(LoopFor(D)->Ubs);
    // The chain dims these bounds reference: another role's dim means a
    // triangular nest (reject), a single non-role dim is the tile parent.
    unsigned Parent = ND;
    for (const std::vector<BoundExpr> *Side : {&Lbs, &Ubs})
      for (const BoundExpr &BE : *Side)
        for (unsigned O = 0; O < ND; ++O)
          if (O != D && BE.Expr.getCoeff(O) != 0 && IsChainDim(O)) {
            if (Parent != ND && Parent != O)
              return false;
            Parent = O;
          }
    if (Parent == ND) { // rectangular already: no strip-mine to merge
      LbS = cBoundList(Lbs, Dims, true);
      UbS = cBoundList(Ubs, Dims, false);
      return true;
    }
    if (Parent == Vi || Parent == Vj || Parent == Vk)
      return false; // triangular in another role
    // Strip-mine shape: lb = c*p + r (single, exact); the tile ub
    // c*p + r + c - 1 present; every other ub a clamp independent of p.
    if (Lbs.size() != 1 || Lbs[0].Divisor != 1)
      return false;
    const int64_t Cf = Lbs[0].Expr.getCoeff(Parent);
    if (Cf <= 0)
      return false;
    bool TileUb = false;
    std::vector<BoundExpr> Clamps;
    for (const BoundExpr &U : Ubs) {
      if (U.Expr.getCoeff(Parent) == 0) {
        Clamps.push_back(U);
        continue;
      }
      if (U.Divisor != 1 || !(U.Expr == Lbs[0].Expr + (Cf - 1)))
        return false;
      TileUb = true;
    }
    if (!TileUb)
      return false;
    // The tile loop itself must be rectangular over non-chain dims.
    const ASTNode *PL = LoopFor(Parent);
    std::vector<BoundExpr> PLbs = SubstBounds(PL->Lbs);
    std::vector<BoundExpr> PUbs = SubstBounds(PL->Ubs);
    for (const std::vector<BoundExpr> *Side : {&PLbs, &PUbs})
      for (const BoundExpr &BE : *Side)
        for (unsigned O = 0; O < ND; ++O)
          if (BE.Expr.getCoeff(O) != 0 && IsChainDim(O))
            return false;
    if (PLbs.size() != 1 || PLbs[0].Divisor != 1)
      return false;
    AffineExpr Rest = Lbs[0].Expr;
    Rest.setCoeff(Parent, 0);
    LbS = cAffine(PLbs[0].Expr * Cf + Rest, Dims);
    std::string Ub;
    for (const BoundExpr &PU : PUbs) {
      std::string T;
      if (PU.Divisor == 1) {
        T = cAffine(PU.Expr * Cf + Rest + (Cf - 1), Dims);
      } else {
        T = std::to_string(Cf) + "*(" + cBound(PU, Dims) + ") + (" +
            cAffine(Rest + (Cf - 1), Dims) + ")";
      }
      Ub = Ub.empty() ? T : "shk_min(" + Ub + ", " + T + ")";
    }
    for (const BoundExpr &CL : Clamps)
      Ub = "shk_min(" + Ub + ", " + cBound(CL, Dims) + ")";
    UbS = Ub;
    Used.push_back(Parent);
    return true;
  };
  GemmMatch R;
  if (!MergeRole(Vi, R.ILb, R.IUb) || !MergeRole(Vj, R.JLb, R.JUb) ||
      !MergeRole(Vk, R.KLb, R.KUb))
    return false;
  // Every chain loop must be accounted for as a role or a tile parent —
  // an unaccounted loop would re-execute (re-accumulate) the merged call.
  if (Used.size() != Loops.size())
    return false;
  for (const ASTNode *L : Loops) {
    bool Found = false;
    for (unsigned U : Used)
      if (U == L->Dim) {
        Found = true;
        break;
      }
    if (!Found)
      return false;
  }

  R.S = &S;
  R.VarMap = &Inst->VarMap;
  R.C = &C;
  R.A = A;
  R.B = B;
  R.Vi = Vi;
  R.Vj = Vj;
  R.Vk = Vk;
  M = std::move(R);
  return true;
}

/// Per-index-position element strides of an array as C expressions over the
/// program parameters: s[p] is how far the linear offset moves when index p
/// increases by one.
std::vector<std::string> axisStrides(const ArrayDecl &A, const Program &P) {
  std::vector<std::string> PN(P.getNumVars());
  for (unsigned V = 0; V < P.getNumVars(); ++V)
    PN[V] = P.getVarName(V);
  unsigned D = A.Extents.size();
  std::vector<std::string> S(D, "1");
  switch (A.Layout) {
  case LayoutKind::RowMajor: {
    std::string Acc;
    for (unsigned Pos = D; Pos-- > 0;) {
      S[Pos] = Acc.empty() ? "1" : Acc;
      std::string E = "(" + cAffine(A.Extents[Pos], PN) + ")";
      Acc = Acc.empty() ? E : Acc + "*" + E;
    }
    break;
  }
  case LayoutKind::ColMajor: {
    std::string Acc;
    for (unsigned Pos = 0; Pos < D; ++Pos) {
      S[Pos] = Acc.empty() ? "1" : Acc;
      std::string E = "(" + cAffine(A.Extents[Pos], PN) + ")";
      Acc = Acc.empty() ? E : Acc + "*" + E;
    }
    break;
  }
  case LayoutKind::BandLower:
    // offset(i, j) = (i - j) + j*(bw + 1): unit stride along i, bw along j.
    S.assign(2, "1");
    S[1] = "(" + P.getVarName(A.BandParam) + ")";
    break;
  case LayoutKind::TiledRowMajor:
    fatalError("tiled layout has no affine strides");
  }
  return S;
}

/// The element stride of \p R along scanning dimension \p Dim as a C
/// expression (sum over index positions of coeff * axis stride).
std::string strideExpr(const ArrayRef &R, const Program &P, const Stmt &S,
                       const std::vector<unsigned> &VarMap, unsigned NumDims,
                       unsigned NumParams, unsigned Dim) {
  std::vector<std::string> Axis = axisStrides(P.getArray(R.ArrayId), P);
  std::string Out;
  for (unsigned Pos = 0; Pos < R.Indices.size(); ++Pos) {
    int64_t C =
        mapToScan(R.Indices[Pos], S, VarMap, NumDims, NumParams).getCoeff(Dim);
    if (C == 0)
      continue;
    std::string Term =
        C == 1 ? "" : std::string("(").append(std::to_string(C)).append(")*");
    Term += Axis[Pos];
    Out = Out.empty() ? Term : Out + " + " + Term;
  }
  return Out.empty() ? "0" : Out;
}

void emitNode(const ASTNode &N, const LoopNest &Nest, StmtEmitter &SE,
              Writer &W, const EmitCtx &Ctx, bool TryGemm = true);

/// Emits the matched triple loop as a runtime-guarded hooks->gemm call with
/// the plain loops as the else branch. Layout orientation is resolved at
/// run time: the direct guard needs unit stride along j in C and B and
/// along k in A (row-major-like); the transposed guard computes C^T += B^T
/// * A^T for the column-major-like case. Both keep the reduction ascending
/// in k, so the summation order matches the interpreter exactly.
void emitGemmCall(const ASTNode &N, const GemmMatch &M, const LoopNest &Nest,
                  StmtEmitter &SE, Writer &W, const EmitCtx &Ctx) {
  const Program &P = *Nest.Prog;
  const std::vector<std::string> &Dims = Nest.DimNames;
  unsigned ND = Nest.NumDims, NP = Nest.NumParams;
  auto Stride = [&](const ArrayRef &R, unsigned Dim) {
    return strideExpr(R, P, *M.S, *M.VarMap, ND, NP, Dim);
  };
  W.line("{");
  W.indent();
  W.line("const int64_t _shkg_i_lb = " + M.ILb + ", _shkg_i_ub = " + M.IUb +
         ";");
  W.line("const int64_t _shkg_j_lb = " + M.JLb + ", _shkg_j_ub = " + M.JUb +
         ";");
  W.line("const int64_t _shkg_k_lb = " + M.KLb + ", _shkg_k_ub = " + M.KUb +
         ";");
  W.line("const int64_t _shkg_m = _shkg_i_ub - _shkg_i_lb + 1;");
  W.line("const int64_t _shkg_n = _shkg_j_ub - _shkg_j_lb + 1;");
  W.line("const int64_t _shkg_k = _shkg_k_ub - _shkg_k_lb + 1;");
  W.line("const int64_t _shkg_c_si = " + Stride(*M.C, M.Vi) +
         ", _shkg_c_sj = " + Stride(*M.C, M.Vj) + ";");
  W.line("const int64_t _shkg_a_si = " + Stride(*M.A, M.Vi) +
         ", _shkg_a_sk = " + Stride(*M.A, M.Vk) + ";");
  W.line("const int64_t _shkg_b_sk = " + Stride(*M.B, M.Vk) +
         ", _shkg_b_sj = " + Stride(*M.B, M.Vj) + ";");

  // Base offsets: the refs evaluated at the three roles' lower bounds.
  std::vector<std::string> SubNames = Dims;
  SubNames[M.Vi] = "_shkg_i_lb";
  SubNames[M.Vj] = "_shkg_j_lb";
  SubNames[M.Vk] = "_shkg_k_lb";
  StmtEmitter SE2(P, SubNames);
  SE2.bind(*M.S, *M.VarMap);
  std::string PC = "a" + std::to_string(M.C->ArrayId) + " + (" +
                   SE2.offExpr(*M.C) + ")";
  std::string PA = "a" + std::to_string(M.A->ArrayId) + " + (" +
                   SE2.offExpr(*M.A) + ")";
  std::string PB = "a" + std::to_string(M.B->ArrayId) + " + (" +
                   SE2.offExpr(*M.B) + ")";
  std::string Shape = "_shkg_m > 0 && _shkg_n > 0 && _shkg_k > 0";
  W.line("if (hooks && hooks->gemm && " + Shape +
         " && _shkg_c_sj == 1 && _shkg_a_sk == 1 && _shkg_b_sj == 1) {");
  W.indent();
  W.line("hooks->gemm(" + PC + ", " + PA + ", " + PB +
         ", _shkg_m, _shkg_n, _shkg_k, _shkg_c_si, _shkg_a_si, _shkg_b_sk);");
  W.dedent();
  W.line("} else if (hooks && hooks->gemm && " + Shape +
         " && _shkg_c_si == 1 && _shkg_b_sk == 1 && _shkg_a_si == 1) {");
  W.indent();
  W.line("hooks->gemm(" + PC + ", " + PB + ", " + PA +
         ", _shkg_n, _shkg_m, _shkg_k, _shkg_c_sj, _shkg_b_sj, _shkg_a_sk);");
  W.dedent();
  W.line("} else {");
  W.indent();
  emitNode(N, Nest, SE, W, Ctx, /*TryGemm=*/false);
  W.dedent();
  W.line("}");
  W.dedent();
  W.line("}");
}

/// Opens  for (Dim = max(Lbs) .. min(Ubs)) {  and indents. A \p Simd loop
/// takes OpenMP canonical form (one induction variable, the bound a
/// variable of its own) inside a block that declares both bounds.
void emitLoopHeader(Writer &W, const std::string &V,
                    const std::vector<BoundExpr> &Lbs,
                    const std::vector<BoundExpr> &Ubs,
                    const std::vector<std::string> &Dims, bool Simd = false) {
  const std::string Lb = cBoundList(Lbs, Dims, true);
  const std::string Ub = cBoundList(Ubs, Dims, false);
  if (Simd) {
    W.line("{");
    W.indent();
    W.line("const int64_t " + V + "_lb = " + Lb + ", " + V + "_ub = " + Ub +
           ";");
    W.line("_Pragma(\"omp simd\")");
    W.line("for (int64_t " + V + " = " + V + "_lb; " + V + " <= " + V +
           "_ub; ++" + V + ") {");
  } else {
    W.line("for (int64_t " + V + " = " + Lb + ", " + V + "_ub = " + Ub + "; " +
           V + " <= " + V + "_ub; ++" + V + ") {");
  }
  W.indent();
}

/// Closes what emitLoopHeader opened.
void emitLoopEnd(Writer &W, bool Simd = false) {
  for (int Level = Simd ? 2 : 1; Level > 0; --Level) {
    W.dedent();
    W.line("}");
  }
}

void emitNode(const ASTNode &N, const LoopNest &Nest, StmtEmitter &SE,
              Writer &W, const EmitCtx &Ctx, bool TryGemm) {
  const std::vector<std::string> &Dims = Nest.DimNames;
  switch (N.Kind) {
  case ASTKind::Loop: {
    if (Ctx.GemmHooks && TryGemm) {
      GemmMatch M;
      if (matchGemm(N, Nest, M)) {
        emitGemmCall(N, M, Nest, SE, W, Ctx);
        return;
      }
    }
    // A marked loop is the innermost one emitted for N.
    const bool Simd = Ctx.Loops->Simd.count(&N) != 0;
    Ctx.Counts->SimdLoops += Simd;
    const auto Swap = Ctx.Loops->Swaps.find(&N);
    if (Swap != Ctx.Loops->Swaps.end()) {
      // The pair's inner loop runs outside, its instances inside both.
      const ASTNode &Inner = *N.Body[0];
      const Interchange &X = Swap->second;
      emitLoopHeader(W, Dims[Inner.Dim], X.OuterLbs, X.OuterUbs, Dims);
      emitLoopHeader(W, Dims[N.Dim], X.InnerLbs, X.InnerUbs, Dims, Simd);
      for (const ASTNodePtr &C : Inner.Body)
        emitNode(*C, Nest, SE, W, Ctx);
      emitLoopEnd(W, Simd);
      emitLoopEnd(W);
      ++Ctx.Counts->Reordered;
      return;
    }
    emitLoopHeader(W, Dims[N.Dim], N.Lbs, N.Ubs, Dims, Simd);
    for (const ASTNodePtr &C : N.Body)
      emitNode(*C, Nest, SE, W, Ctx);
    emitLoopEnd(W, Simd);
    return;
  }
  case ASTKind::Let: {
    W.line("{");
    W.indent();
    W.line("const int64_t " + Dims[N.Dim] + " = " + cBound(N.Lbs[0], Dims) +
           ";");
    for (const ASTNodePtr &C : N.Body)
      emitNode(*C, Nest, SE, W, Ctx);
    W.dedent();
    W.line("}");
    return;
  }
  case ASTKind::If: {
    std::string Cond;
    for (const ConstraintRow &Row : N.EqConds) {
      if (!Cond.empty())
        Cond += " && ";
      Cond += "(" + cRow(Row, Dims) + ") == 0";
    }
    for (const ConstraintRow &Row : N.IneqConds) {
      if (!Cond.empty())
        Cond += " && ";
      Cond += "(" + cRow(Row, Dims) + ") >= 0";
    }
    W.line("if (" + Cond + ") {");
    W.indent();
    for (const ASTNodePtr &C : N.Body)
      emitNode(*C, Nest, SE, W, Ctx);
    W.dedent();
    W.line("}");
    return;
  }
  case ASTKind::Instance: {
    SE.bind(*N.S, N.VarMap);
    W.line(SE.refExpr(N.S->LHS) + " = " + SE.scalarExpr(N.S->RHS.get()) +
           ";");
    return;
  }
  }
}

} // namespace

std::string shackle::emitKernel(const LoopNest &Nest,
                                const std::string &Name) {
  const Program &P = *Nest.Prog;
  Writer W;
  W.line("extern \"C\" void " + Name +
         "(double **arrays, const int64_t *params) {");
  W.indent();
  for (unsigned V = 0; V < P.getNumParams(); ++V)
    W.line("const int64_t " + P.getVarName(V) + " = params[" +
           std::to_string(V) + "];");
  for (unsigned A = 0; A < P.getNumArrays(); ++A)
    W.line("double *__restrict a" + std::to_string(A) + " = arrays[" +
           std::to_string(A) + "];");
  W.line("(void)arrays; (void)params;");

  StmtEmitter SE(P, Nest.DimNames);
  const LoopPlan Loops = planLoops(Nest);
  NativeEmitStats Counts;
  EmitCtx Ctx{/*GemmHooks=*/false, &Loops, &Counts};
  for (const ASTNodePtr &N : Nest.Roots)
    emitNode(*N, Nest, SE, W, Ctx);
  W.dedent();
  W.line("}");
  return W.str();
}

namespace {

/// A maximal run of consecutive equal roots in a task's segment sequence.
struct SegRun {
  const ASTNode *Root;
  std::size_t Base;  ///< First segment index of the run.
  std::size_t Count; ///< Run length.
};

std::vector<SegRun> segmentRuns(const std::vector<const ASTNode *> &Roots) {
  std::vector<SegRun> Runs;
  for (std::size_t I = 0; I < Roots.size();) {
    std::size_t J = I + 1;
    while (J < Roots.size() && Roots[J] == Roots[I])
      ++J;
    Runs.push_back({Roots[I], I, J - I});
    I = J;
  }
  return Runs;
}

/// Binds every scanning dimension (and differently-named parameters) from
/// the per-segment dims slice \p Src. Used inside the replay loop, where
/// the bindings shadow nothing but are shadowed by the subtree's own
/// scratch loops.
void emitDimBindings(Writer &W, const LoopNest &Nest, const Program &P,
                     const std::string &Src) {
  for (unsigned D = 0; D < Nest.NumDims; ++D)
    W.line("const int64_t " + Nest.DimNames[D] + " = " + Src + "[" +
           std::to_string(D) + "]; (void)" + Nest.DimNames[D] + ";");
  for (unsigned V = 0; V < P.getNumParams(); ++V)
    if (P.getVarName(V) != Nest.DimNames[V])
      W.line("const int64_t " + P.getVarName(V) + " = " + Src + "[" +
             std::to_string(V) + "]; (void)" + P.getVarName(V) + ";");
}

/// emitNativeTaskKernel with the nest's loop order planned; adds the loop
/// pairs it emits interchanged and the loops it emits under `omp simd` to
/// \p Counts.
std::string emitTaskKernel(const LoopNest &Nest,
                           const std::vector<const ASTNode *> &Roots,
                           const std::string &Name,
                           const NativeEmitOptions &Opts,
                           const LoopPlan &Loops, NativeEmitStats &Counts) {
  const Program &P = *Nest.Prog;
  Writer W;
  W.line("extern \"C\" void " + Name +
         "(double **arrays, const int64_t *dims, "
         "const shackle_native_hooks *hooks) {");
  W.indent();
  // dims is the task's *flattened* per-segment DimValues: segment s reads
  // dims[s*NumDims .. +NumDims).
  // Consecutive segments sharing a subtree (the inner shackle-level replay
  // loop of a hierarchical task) collapse into one emitted loop over the
  // run, so the function size is O(distinct runs), not O(segments).
  for (unsigned A = 0; A < P.getNumArrays(); ++A)
    W.line("double *__restrict a" + std::to_string(A) + " = arrays[" +
           std::to_string(A) + "]; (void)a" + std::to_string(A) + ";");
  W.line("(void)arrays; (void)dims; (void)hooks;");

  StmtEmitter SE(P, Nest.DimNames, "__builtin_sqrt");
  const std::string ND = std::to_string(Nest.NumDims);
  for (const SegRun &R : segmentRuns(Roots)) {
    W.line("for (int64_t _shk_s = " + std::to_string(R.Base) +
           "; _shk_s < " + std::to_string(R.Base + R.Count) +
           "; ++_shk_s) {");
    W.indent();
    W.line("const int64_t *_shk_d = dims + _shk_s * " + ND + ";");
    emitDimBindings(W, Nest, P, "_shk_d");
    EmitCtx Ctx{Opts.GemmHooks, &Loops, &Counts};
    W.line("{");
    W.indent();
    emitNode(*R.Root, Nest, SE, W, Ctx);
    W.dedent();
    W.line("}");
    W.dedent();
    W.line("}");
  }
  W.dedent();
  W.line("}");
  return W.str();
}

} // namespace

std::string shackle::emitNativeTaskKernel(
    const LoopNest &Nest, const std::vector<const ASTNode *> &Roots,
    const std::string &Name, const NativeEmitOptions &Opts) {
  NativeEmitStats Counts;
  return emitTaskKernel(Nest, Roots, Name, Opts, planLoops(Nest), Counts);
}

std::string shackle::emitNativeTranslationUnit(
    const std::vector<NativeTaskKernelSpec> &Tasks,
    const NativeEmitOptions &Opts, NativeEmitStats *Stats) {
  Writer W;
  W.line("// Generated by the Shackle native execution tier. Do not edit.");
  W.line("#include <stdint.h>");
  W.blank();
  W.line("namespace {");
  W.line("inline int64_t shk_floordiv(int64_t a, int64_t b) {");
  W.line("  int64_t q = a / b;");
  W.line("  return (a % b != 0 && a < 0) ? q - 1 : q;");
  W.line("}");
  W.line("inline int64_t shk_ceildiv(int64_t a, int64_t b) {");
  W.line("  int64_t q = a / b;");
  W.line("  return (a % b != 0 && a > 0) ? q + 1 : q;");
  W.line("}");
  W.line("inline int64_t shk_max(int64_t a, int64_t b) "
         "{ return a > b ? a : b; }");
  W.line("inline int64_t shk_min(int64_t a, int64_t b) "
         "{ return a < b ? a : b; }");
  W.line("} // namespace");
  W.blank();
  // Host-side mirror: shackle::NativeHooks in native/NativeJit.h. The field
  // order is the ABI contract between the host and the generated object.
  W.line("extern \"C\" {");
  W.line("struct shackle_native_hooks {");
  W.line("  void (*gemm)(double *c, const double *a, const double *b,");
  W.line("               int64_t m, int64_t n, int64_t k,");
  W.line("               int64_t ldc, int64_t lda, int64_t ldb);");
  W.line("};");
  W.line("int64_t shackle_native_abi_version() { return 1; }");
  W.line("} // extern \"C\"");
  W.blank();
  NativeEmitStats Counts;
  std::unordered_map<const LoopNest *, LoopPlan> Plans;
  for (const NativeTaskKernelSpec &T : Tasks) {
    auto [It, New] = Plans.try_emplace(T.Nest);
    if (New)
      It->second = planLoops(*T.Nest);
    const std::string Kernel =
        emitTaskKernel(*T.Nest, T.Roots, T.Name, Opts, It->second, Counts);
    Counts.GemmRouted += Kernel.find("hooks->gemm") != std::string::npos;
    W.raw(Kernel);
    W.blank();
  }
  if (Stats)
    *Stats = Counts;
  return W.str();
}

std::string shackle::emitTranslationUnit(
    const std::vector<KernelSpec> &Kernels) {
  Writer W;
  W.line("// Generated by dsc-gen (Shackle: data-centric multi-level"
         " blocking).");
  W.line("// Do not edit: regenerate via the build system.");
  W.line("#include <cmath>");
  W.line("#include <cstdint>");
  W.line("#include <cstring>");
  W.blank();
  W.line("namespace {");
  W.line("inline int64_t shk_floordiv(int64_t a, int64_t b) {");
  W.line("  int64_t q = a / b;");
  W.line("  return (a % b != 0 && a < 0) ? q - 1 : q;");
  W.line("}");
  W.line("inline int64_t shk_ceildiv(int64_t a, int64_t b) {");
  W.line("  int64_t q = a / b;");
  W.line("  return (a % b != 0 && a > 0) ? q + 1 : q;");
  W.line("}");
  W.line("inline int64_t shk_max(int64_t a, int64_t b) "
         "{ return a > b ? a : b; }");
  W.line("inline int64_t shk_min(int64_t a, int64_t b) "
         "{ return a < b ? a : b; }");
  W.line("} // namespace");
  W.blank();
  for (const KernelSpec &K : Kernels) {
    W.raw(emitKernel(*K.Nest, K.Name));
    W.blank();
  }

  // Registry.
  W.line("typedef void (*shackle_kernel_fn)(double **, const int64_t *);");
  W.line("extern \"C\" shackle_kernel_fn shackle_gen_lookup(const char "
         "*name) {");
  W.indent();
  for (const KernelSpec &K : Kernels)
    W.line("if (std::strcmp(name, \"" + K.Name + "\") == 0) return " +
           K.Name + ";");
  W.line("return nullptr;");
  W.dedent();
  W.line("}");
  return W.str();
}

std::string shackle::emitHeader(const std::vector<KernelSpec> &Kernels) {
  Writer W;
  W.line("// Generated by dsc-gen (Shackle). Do not edit.");
  W.line("#pragma once");
  W.line("#include <cstdint>");
  W.blank();
  for (const KernelSpec &K : Kernels)
    W.line("extern \"C\" void " + K.Name +
           "(double **arrays, const int64_t *params);");
  W.blank();
  W.line("typedef void (*shackle_kernel_fn)(double **, const int64_t *);");
  W.line("extern \"C\" shackle_kernel_fn shackle_gen_lookup(const char "
         "*name);");
  return W.str();
}
