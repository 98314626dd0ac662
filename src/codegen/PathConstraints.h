//===- PathConstraints.h - Constraints along a generated-code path -*- C++ -*-//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The affine constraints that the loops, lets and guards on a path of a
/// LoopNest put on the nest's scanning dims, and the Fourier-Motzkin
/// elimination certified to give the exact integer projection. Two passes
/// read them: the plan's write footprints (parallel/BlockPartition.h)
/// project each store's image under a segment root, and the C++ emitter
/// (emitc) proves an innermost loop interchange or a SIMD loop legal and
/// projects the interchanged loop bounds.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_CODEGEN_PATHCONSTRAINTS_H
#define SHACKLE_CODEGEN_PATHCONSTRAINTS_H

#include "codegen/LoopAST.h"

#include <cstddef>
#include <vector>

namespace shackle {

/// The row  lhs >= 0  over the nest's dims for  Dim >= B  (\p Lower) or
/// Dim <= B.
ConstraintRow boundRow(unsigned NumDims, unsigned Dim, const BoundExpr &B,
                       bool Lower);

/// The bound the row \p R >= 0 puts on \p Dim given the other dims (R[Dim]
/// must be non-zero): a ceil lower bound when R[Dim] > 0, else a floor upper
/// bound. The inverse of boundRow.
BoundExpr rowBound(const ConstraintRow &R, unsigned Dim);

/// Calls \p F on every constraint of \p P as an inequality row (an
/// equality as two).
template <typename Fn> void forEachRow(const Polyhedron &P, Fn &&F) {
  for (const ConstraintRow &R : P.inequalities())
    F(R);
  for (const ConstraintRow &R : P.equalities()) {
    F(R);
    ConstraintRow Neg(R);
    for (int64_t &C : Neg)
      C = -C;
    F(Neg);
  }
}

/// True when eliminating \p Var is exact by the unit rule: a unit equality
/// substitutes it, or, with no equality on it, every lower or every upper
/// bound has a unit coefficient.
bool unitExact(const Polyhedron &P, unsigned Var);

/// Eliminates \p Var from \p P by Fourier-Motzkin and reports whether the
/// real shadow is certified to be the exact integer projection.
bool eliminateExactly(Polyhedron &P, unsigned Var);

/// The constraints of the nodes entered so far, outermost first: a loop
/// adds its bounds, a let its value (as two bounds), a guard its
/// conditions. Walks push a node on the way down and pop it on the way up.
class PathConstraints {
public:
  explicit PathConstraints(unsigned NumDims) : NumDims(NumDims) {}

  /// Enters \p N; an Instance adds nothing.
  void push(const ASTNode &N);
  /// Leaves the node entered last.
  void pop();

  const std::vector<ConstraintRow> &inequalities() const { return Ineqs; }
  const std::vector<ConstraintRow> &equalities() const { return Eqs; }
  /// The dims the path's loops and lets bind, outermost first.
  const std::vector<unsigned> &bound() const { return Bound; }
  /// True when a dim is bound twice on the path. The rows are then not one
  /// polyhedron: the earlier ones read the dim's old value.
  bool rebinds() const;

  /// The path's constraints over the nest's dims followed by \p Extra
  /// unconstrained variables.
  Polyhedron polyhedron(unsigned Extra = 0) const;

  /// Pairs of points on the path: the nest's dims (the first point), then
  /// one column per dim of \p Primed, which the second point has in place
  /// of that dim. The second point agrees with the first on every other
  /// dim, and every row on a primed dim holds for it too.
  Polyhedron pairs(const std::vector<unsigned> &Primed) const;

private:
  struct Mark {
    std::size_t Ineqs, Eqs, Bound;
  };
  unsigned NumDims;
  std::vector<ConstraintRow> Ineqs, Eqs;
  std::vector<unsigned> Bound;
  std::vector<Mark> Marks;
};

/// The indices of \p R, as the instance \p Inst reads them, as rows over
/// the nest's dims.
std::vector<ConstraintRow> indexRows(const LoopNest &Nest, const ASTNode &Inst,
                                     const ArrayRef &R);

/// True when the Omega test proves that no point of \p Pairs (see
/// PathConstraints::pairs) has an access of the first point's instance and
/// an access of the second point's instance, each an instance of one of
/// \p Insts, touch one element of an array with at least one of the two a
/// write. Every ordered pair of accesses is tried, across statements too;
/// an undecided query counts as a conflict.
bool provesNoConflict(const LoopNest &Nest, const Polyhedron &Pairs,
                      const std::vector<unsigned> &Primed,
                      const std::vector<ASTNodePtr> &Insts);

} // namespace shackle

#endif // SHACKLE_CODEGEN_PATHCONSTRAINTS_H
