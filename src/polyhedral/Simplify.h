//===- Simplify.h - Constraint simplification --------------------*- C++ -*-=//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Redundancy elimination and "gist" simplification. The paper's pipeline
/// produces naive guarded code (its Figure 5) and then relies on a polyhedral
/// tool "merely to simplify programs" (Section 4.2); these routines are that
/// simplifier. A constraint is redundant over the integers iff adding its
/// negation yields an integer-empty set, which the Omega test decides exactly.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_POLYHEDRAL_SIMPLIFY_H
#define SHACKLE_POLYHEDRAL_SIMPLIFY_H

#include "polyhedral/Polyhedron.h"

namespace shackle {

/// True when a single row of \p C implies \p Row (an equality row when
/// \p IsEq, an inequality row otherwise) on its own, by comparing rows and
/// without a solver call. An inequality is implied by an inequality of C
/// with the same coefficients and a constant no larger, or by an equality
/// of C with the same coefficients in either sign whose pinned value
/// satisfies it; an equality only by the same equality in either sign.
/// A true answer is sound for any C; rows of a normalized C compare equal
/// more often. A false answer decides nothing: the Omega test may still
/// prove Row implied by several rows together.
bool impliedByOneRow(const ConstraintRow &Row, bool IsEq,
                     const Polyhedron &C);

/// Removes inequalities of \p P implied (over the integers) by the remaining
/// constraints. Deterministic: constraints are considered in order.
void removeRedundantInequalities(Polyhedron &P);

/// Returns \p P simplified under the assumption that \p Context holds: every
/// constraint of P that is implied by (rest of P) /\ Context is dropped.
/// The result, intersected with Context, equals P intersected with Context.
/// A constraint that one row of Context implies (impliedByOneRow) is
/// dropped without a solver query.
Polyhedron gist(const Polyhedron &P, const Polyhedron &Context);

} // namespace shackle

#endif // SHACKLE_POLYHEDRAL_SIMPLIFY_H
