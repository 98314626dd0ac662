//===- OmegaTest.h - Exact integer feasibility (Pugh's Omega test) -*- C++ -*-//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper checks shackle legality (Theorem 1) by asking whether a
/// conjunction of affine constraints has an integer solution, using the Omega
/// calculator. This file is our from-scratch implementation of that decision
/// procedure: William Pugh's Omega test (CACM 35(8), 1992) —
///
///   1. equality elimination with the symmetric ("hat") modulo trick,
///   2. Fourier-Motzkin elimination with exactness tracking,
///   3. the dark-shadow sufficient test, and
///   4. splintering for the rare inexact eliminations.
///
/// The test is exact but worst-case exponential, and Fourier-Motzkin can
/// splinter and grow coefficients without bound on adversarial inputs. Every
/// query therefore runs under a SolverBudget: a work-unit ceiling, a
/// recursion ceiling, and overflow-checked int64 arithmetic. When any limit
/// trips, the query answers *Unknown* instead of hanging or wrapping, and
/// callers must act conservatively (keep the dependence, reject the shackle,
/// fall back to simpler code generation).
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_POLYHEDRAL_OMEGATEST_H
#define SHACKLE_POLYHEDRAL_OMEGATEST_H

#include "polyhedral/Polyhedron.h"

#include <cstdint>

namespace shackle {

/// Three-valued answer to "is this set integer-empty?".
enum class FeasVerdict {
  Empty,    ///< Proven: no integer point.
  NonEmpty, ///< Proven: at least one integer point.
  Unknown,  ///< Budget exhausted or arithmetic overflowed; undecided.
};

/// Three-valued answer for the derived predicates (subset, disjoint).
enum class Ternary { False, True, Unknown };

/// Resource limits for one solver query (shared across its recursion).
struct SolverBudget {
  /// Abstract work units; roughly one per constraint combination formed
  /// during Fourier-Motzkin plus one per recursive subproblem. The default
  /// decides every legality/codegen problem in this project in well under
  /// a millisecond while bounding adversarial inputs to ~a second.
  uint64_t MaxWorkUnits = 2'000'000;
  /// Recursion ceiling (also a stack-depth guard; never disable it).
  unsigned MaxDepth = 256;

  /// A budget for callers that prefer a long wait over an Unknown verdict.
  static SolverBudget generous() {
    SolverBudget B;
    B.MaxWorkUnits = 512'000'000;
    return B;
  }
};

/// Counters reported by a bounded query; useful for diagnostics and tests.
struct SolverStats {
  uint64_t WorkUnits = 0;   ///< Total work charged.
  uint64_t Splinters = 0;   ///< Splinter subproblems spawned.
  bool HitWorkLimit = false;
  bool HitDepthLimit = false;
  bool Overflowed = false;  ///< A coefficient left int64 range.

  /// True iff the query gave up for any reason (verdict was Unknown).
  bool exhausted() const {
    return HitWorkLimit || HitDepthLimit || Overflowed;
  }
  /// Human-readable reason for an Unknown verdict.
  std::string reasonStr() const;
};

/// How Fourier-Motzkin elimination of \p Var pairs the inequalities of
/// \p P (equalities are not looked at): the lower and upper bounds it
/// combines, and whether the real shadow is the exact integer projection by
/// Pugh's rule: every lower or every upper bound has a unit coefficient.
struct FMElimination {
  long Lowers = 0;
  long Uppers = 0;
  bool Exact = true;
};
FMElimination classifyElimination(const Polyhedron &P, unsigned Var);

/// Decides whether \p P contains an integer point, within \p Budget. Sound:
/// Empty and NonEmpty answers are exact; Unknown means undecided.
FeasVerdict isIntegerEmptyBounded(const Polyhedron &P,
                                  const SolverBudget &Budget = SolverBudget(),
                                  SolverStats *Stats = nullptr);

/// Process-wide count of top-level solver queries (isIntegerEmptyBounded
/// calls) since startup. The plan-cache service reads this around a request
/// to prove that warm hits never reach the solver.
uint64_t solverQueryCount();

/// Is every integer point of \p A in \p B (same space)? True/False exact;
/// Unknown when some underlying emptiness query exhausted its budget.
Ternary isSubsetOfBounded(const Polyhedron &A, const Polyhedron &B,
                          const SolverBudget &Budget = SolverBudget(),
                          SolverStats *Stats = nullptr);

/// Do A and B share no integer point (same space)?
Ternary isDisjointBounded(const Polyhedron &A, const Polyhedron &B,
                          const SolverBudget &Budget = SolverBudget(),
                          SolverStats *Stats = nullptr);

/// Returns true iff \p P is *proven* to contain no integer point under the
/// default budget. An Unknown verdict maps to false ("not proven empty"),
/// which is the conservative direction for every caller in this project:
/// dependences are kept, redundancy is not assumed, pieces are not dropped.
bool isIntegerEmpty(const Polyhedron &P);

/// Returns true iff every integer point of \p A is proven to lie in \p B
/// (same space); Unknown maps to false.
bool isSubsetOf(const Polyhedron &A, const Polyhedron &B);

/// Returns true iff A and B are proven to share no integer point (same
/// space); Unknown maps to false.
bool isDisjoint(const Polyhedron &A, const Polyhedron &B);

} // namespace shackle

#endif // SHACKLE_POLYHEDRAL_OMEGATEST_H
