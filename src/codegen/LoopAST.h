//===- LoopAST.h - Generated-code AST ---------------------------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The target representation of code generation: a tree of loops over the
/// scanning-space dimensions (block coordinates, then the 2d+1 schedule
/// encoding of the source program), with max/min bounds containing exact
/// integer ceil/floor divisions, affine guards, and statement instances that
/// map source loop variables to scanning dimensions. Both the interpreter
/// and the C++ emitter consume this AST, so everything measured or tested in
/// this project flows through it.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_CODEGEN_LOOPAST_H
#define SHACKLE_CODEGEN_LOOPAST_H

#include "ir/Program.h"
#include "polyhedral/Polyhedron.h"

#include <memory>
#include <string>
#include <vector>

namespace shackle {

/// One term of a loop bound:  ceil((expr) / Divisor)  or  floor(...).
/// \p Expr is affine over the scanning dimensions; Divisor >= 1. Lower
/// bounds use ceil, upper bounds use floor, which makes rational projections
/// exact for unit-step integer loops.
struct BoundExpr {
  AffineExpr Expr;
  int64_t Divisor = 1;
  bool IsCeil = false;

  std::string str(const std::vector<std::string> &Names) const;
};

struct ASTNode;
using ASTNodePtr = std::unique_ptr<ASTNode>;

enum class ASTKind { Loop, If, Instance, Let };

/// A node of the generated-code tree.
struct ASTNode {
  ASTKind Kind;

  // Loop: for Dim = max(Lbs) .. min(Ubs).
  // Let: bind Dim to the single value Lbs[0] (an exact expression).
  unsigned Dim = 0;
  std::vector<BoundExpr> Lbs;
  std::vector<BoundExpr> Ubs;

  // If: conjunction of affine conditions row . (dims, 1) >= 0 / == 0.
  std::vector<ConstraintRow> IneqConds;
  std::vector<ConstraintRow> EqConds;

  // Loop and If carry children.
  std::vector<ASTNodePtr> Body;

  // Instance: execute statement *S with source loop variable k bound to the
  // scanning dimension VarMap[k].
  const Stmt *S = nullptr;
  std::vector<unsigned> VarMap;

  static ASTNodePtr makeLoop(unsigned Dim);
  static ASTNodePtr makeIf();
  static ASTNodePtr makeInstance(const Stmt *S, std::vector<unsigned> VarMap);
  static ASTNodePtr makeLet(unsigned Dim, BoundExpr Value);
};

/// A complete generated program: loops over the scanning space, whose first
/// NumParams dimensions are the symbolic parameters (inputs, not loops).
struct LoopNest {
  const Program *Prog = nullptr;
  unsigned NumDims = 0;
  unsigned NumParams = 0;
  std::vector<std::string> DimNames;
  std::vector<ASTNodePtr> Roots;

  /// Pretty-prints in the paper's style (do-loops, guards, statements).
  std::string str() const;

  /// Total number of Instance nodes.
  unsigned countInstances() const;

  /// Maximum loop nesting depth.
  unsigned loopDepth() const;
};

/// Rewrites a statement-space affine expression (over program variables)
/// into scanning-dimension space: parameters occupy the leading scanning
/// dimensions one-to-one, and the statement's loop variables map through
/// an Instance node's VarMap.
AffineExpr mapToScan(const AffineExpr &E, const Stmt &S,
                     const std::vector<unsigned> &VarMap, unsigned NumDims,
                     unsigned NumParams);

/// Renders an affine condition row over dimension names, e.g.
/// "t1 - 2*t3 + 4 >= 0".
std::string condStr(const ConstraintRow &Row,
                    const std::vector<std::string> &Names, bool IsEq);

} // namespace shackle

#endif // SHACKLE_CODEGEN_LOOPAST_H
