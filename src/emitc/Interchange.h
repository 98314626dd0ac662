//===- Interchange.h - Unit-stride innermost loop interchange ---*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A data shackle fixes the order in which blocks run; inside a block any
/// order that reverses no dependence gives the same result (the paper's
/// Section 5 argument). The emitter uses that freedom for one shape: an
/// innermost perfect loop pair (an outer loop whose only child is a loop
/// over instances) whose store walks the layout's unit-stride axis with
/// the *outer* loop is emitted interchanged, so the contiguous walk is
/// innermost. A pair is interchanged only when
///
///   * every store in the body has stride exactly 1 along the outer dim
///     and a non-zero stride along the inner one (dense row- and
///     column-major layouts only);
///   * the Omega test proves, under the path's loop bounds, lets and
///     guards, that no two instances (o,v), (o',v') with o < o', v > v'
///     touch one element with at least one write — the only pairs the swap
///     reverses;
///   * eliminating the outer dim from the pair's own bounds is a certified
///     exact Fourier-Motzkin projection (t3 <= t2 becomes t2 >= t3).
///
/// Every element then sees the same operations in the same order, so an
/// interchanged kernel is bitwise-identical to the original order.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_EMITC_INTERCHANGE_H
#define SHACKLE_EMITC_INTERCHANGE_H

#include "codegen/LoopAST.h"

#include <unordered_map>
#include <vector>

namespace shackle {

/// The interchanged bounds of one loop pair: the new outer loop runs the
/// old inner dim, the new inner loop the old outer dim.
struct Interchange {
  std::vector<BoundExpr> OuterLbs, OuterUbs;
  std::vector<BoundExpr> InnerLbs, InnerUbs;
};

/// Interchanges keyed by the pair's (old) outer loop.
using InterchangeMap = std::unordered_map<const ASTNode *, Interchange>;

/// Every loop pair of \p Nest that passes the three tests above.
InterchangeMap planInterchanges(const LoopNest &Nest);

} // namespace shackle

#endif // SHACKLE_EMITC_INTERCHANGE_H
