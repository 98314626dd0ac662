//===- SetOps.h - Non-convex set operations on polyhedra --------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operations whose results are finite unions of polyhedra. The polyhedral
/// code generator needs set difference to *separate* the projected domains of
/// different statements into disjoint pieces (the Quillere-Rajopadhye-Wilde
/// scheme); a difference of convex sets is generally non-convex, hence the
/// union-of-polyhedra results here.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_POLYHEDRAL_SETOPS_H
#define SHACKLE_POLYHEDRAL_SETOPS_H

#include "polyhedral/Polyhedron.h"

#include <vector>

namespace shackle {

/// Computes A \ B as a disjoint finite union of polyhedra (over the common
/// space). Empty pieces are dropped; the result may be empty. A row of B
/// that one row of A (or of B's rows before it) already implies
/// (impliedByOneRow) yields no piece and costs no solver query.
std::vector<Polyhedron> subtract(const Polyhedron &A, const Polyhedron &B);

/// Computes A \ (union of Bs) as a disjoint finite union of polyhedra.
std::vector<Polyhedron> subtractAll(const Polyhedron &A,
                                    const std::vector<Polyhedron> &Bs);

} // namespace shackle

#endif // SHACKLE_POLYHEDRAL_SETOPS_H
