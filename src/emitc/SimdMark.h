//===- SimdMark.h - Lane-independent innermost loops ------------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inside a block any order that reverses no dependence gives the same
/// result (the paper's Section 5 argument). By the same argument the
/// iterations of an innermost loop may run in SIMD lanes once no two of
/// them touch one element with a write. The emitter writes such a loop in
/// OpenMP canonical form under `_Pragma("omp simd")`. A loop is marked
/// only when
///
///   * it is emitted innermost over statement instances only: a loop whose
///     body is all Instance nodes, or the old outer loop of an interchanged
///     pair (emitc/Interchange.h), which is emitted inside;
///   * no dim is bound twice on its path;
///   * the Omega test proves, under the path's loop bounds, lets and
///     guards, that no two instances agreeing on every dim but the loop's
///     own (v < v') touch one element of an array with at least one write.
///     Every ordered pair of the body's accesses is tried, across
///     statements as well, so S2(v) reading what S1(v') writes counts.
///
/// A non-empty or undecided set leaves the loop scalar. A marked loop has
/// no reduction and no simdlen clause, and the module is compiled with
/// -ffp-contract=off, so each lane does exactly the scalar operations on
/// its own elements: the kernel stays bitwise-identical to the interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_EMITC_SIMDMARK_H
#define SHACKLE_EMITC_SIMDMARK_H

#include "emitc/Interchange.h"

#include <unordered_set>

namespace shackle {

/// Marked loops, keyed by the node whose emitted innermost loop runs in
/// lanes: the loop itself, or the interchanged pair's (old) outer loop.
using SimdMarks = std::unordered_set<const ASTNode *>;

/// Every loop of \p Nest, emitted with the interchanges \p Swaps, that
/// passes the tests above.
SimdMarks planSimdLoops(const LoopNest &Nest, const InterchangeMap &Swaps);

} // namespace shackle

#endif // SHACKLE_EMITC_SIMDMARK_H
