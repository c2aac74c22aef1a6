//===- Rule.h - Datalog rule representation ---------------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory representation of Datalog rules: terms (rule-local variables or
/// interned constants), atoms, disequality constraints, and the `RuleSet`
/// container that validates rule safety on insertion. Framework models are
/// normally written in rule text (see Parser.h); this API is what the parser
/// lowers to and what tests construct directly.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_DATALOG_RULE_H
#define JACKEE_DATALOG_RULE_H

#include "datalog/Database.h"

#include <span>
#include <string>
#include <vector>

namespace jackee {
namespace datalog {

/// A term in a rule: either a rule-local variable (dense per-rule id) or an
/// interned constant symbol.
struct Term {
  enum class Kind { Variable, Constant };

  Kind TermKind;
  uint32_t VarIndex = 0; ///< valid when TermKind == Variable
  Symbol Value;          ///< valid when TermKind == Constant

  static Term variable(uint32_t Index) {
    Term T;
    T.TermKind = Kind::Variable;
    T.VarIndex = Index;
    return T;
  }
  static Term constant(Symbol Value) {
    Term T;
    T.TermKind = Kind::Constant;
    T.Value = Value;
    return T;
  }

  bool isVariable() const { return TermKind == Kind::Variable; }
  bool isConstant() const { return TermKind == Kind::Constant; }
};

/// A relational atom `R(t1, ..., tn)`, possibly negated in a body.
struct Atom {
  RelationId Rel;
  std::vector<Term> Terms;
  bool Negated = false;
};

/// A comparison constraint between two terms (`x != y`, `x = "c"`).
struct Constraint {
  enum class Kind { Equal, NotEqual };
  Kind CompareKind;
  Term Lhs;
  Term Rhs;
};

/// One Datalog rule: `Head :- Body, Constraints.` A rule with an empty body
/// is a fact. Multi-head source rules are expanded into one `Rule` per head
/// before reaching this representation.
struct Rule {
  Atom Head;
  std::vector<Atom> Body;
  std::vector<Constraint> Constraints;
  uint32_t VariableCount = 0;
  /// Human-readable provenance (source file/framework name), for
  /// diagnostics.
  std::string Origin;
};

/// Inputs the planner costs candidate orders with. Both fields are
/// optional: a default-constructed context has no statistics, so every
/// atom estimates as empty and the plan keeps body order.
struct PlanContext {
  /// Live tuple count per relation id at plan time (the semi-naive round's
  /// snapshot). Relations past the end estimate via \p Stats or as empty.
  std::span<const uint32_t> RelationSizes;
  /// Optional index statistics source: when a relation already has an index
  /// over a candidate's bound columns, its exact distinct-key count sharpens
  /// the fanout estimate.
  const Database *Stats = nullptr;
};

/// The static join plan for one (rule, delta-atom) evaluation pass.
///
/// Semi-naive evaluation visits positive body atoms in a fixed order (the
/// delta atom first, so the usually-small delta drives the join). Which
/// columns of each atom are bound when the join reaches it is fully
/// determined by that order: a variable is bound iff it occurred in an
/// earlier atom of the plan. Precomputing the bound column sets lets the
/// evaluator skip per-tuple rediscovery.
///
/// Constraints and negated atoms are *guards*: pure checks over bound
/// variables. The plan assigns each guard to a slot `k` in
/// `[0, PositiveOrder.size()]` — slot 0 runs before any atom is matched
/// (constant-only guards, and everything on fact rules), slot `k > 0` runs
/// as soon as the first `k` plan atoms are matched. Guard placement never
/// changes results: constraints are pure, and a negated relation cannot
/// grow while its consumers' stratum runs (stratification), so a guard
/// evaluates identically at any slot where its variables are bound.
struct JoinPlan {
  /// Body indexes of positive atoms in visit order (delta atom first).
  std::vector<uint32_t> PositiveOrder;
  /// For each position in `PositiveOrder`: the strictly increasing column
  /// positions bound by constants or earlier-bound variables.
  std::vector<std::vector<uint32_t>> BoundColumns;
  /// Guard slots, both sized `PositiveOrder.size() + 1`. `ConstraintsAt[k]`
  /// holds indexes into `Rule::Constraints`, `NegationsAt[k]` body indexes
  /// of negated atoms.
  std::vector<std::vector<uint32_t>> ConstraintsAt;
  std::vector<std::vector<uint32_t>> NegationsAt;

  // Planner observability, aggregated into the metrics registry per round.
  /// Sum over atoms of |plan position - body-order position|, where body
  /// order puts the delta atom first.
  uint32_t ReorderDistance = 0;
  /// Sum over guards of (last slot - assigned slot): how much earlier than
  /// after the full join each guard runs.
  uint32_t GuardHoistDepth = 0;
  /// Product over plan positions of the per-atom fanout estimate the cost
  /// model predicts for the chosen order (0 when any atom is empty).
  double EstimatedFanout = 0;
};

/// Computes the join plan for evaluating \p R with \p DeltaAtom as the
/// delta-restricted body atom (-1 for a full/naive pass).
///
/// The delta atom stays pinned at position 0 (the delta is usually the
/// smallest input and semi-naive correctness wants it driving); the
/// remaining positive atoms are picked one at a time, each step taking the
/// atom with the smallest estimated fanout under the already-bound
/// variables, breaking ties toward body order. The estimate for an atom
/// with `N` live tuples and `B` of `A` columns bound is `N / distinct-keys`
/// when \p Ctx.Stats has an index over exactly those columns, else the
/// `N^(1 - B/A)` uniform-selectivity heuristic (1 when fully bound, `N`
/// when unbound). Guards are hoisted to the earliest slot where their
/// variables are bound. The order only changes how fast a pass runs, never
/// what it derives (DESIGN.md §10.2).
JoinPlan makeJoinPlan(const Rule &R, int DeltaAtom,
                      const PlanContext &Ctx = {});

/// A validated collection of rules over one database's relation schema.
class RuleSet {
public:
  /// Adds \p R after checking safety:
  ///  - arities of all atoms match their relations,
  ///  - every head variable, negated-atom variable and constraint variable
  ///    also occurs in some positive body atom (facts may not contain
  ///    variables at all).
  /// \returns an empty string on success, else a diagnostic.
  std::string add(const Database &DB, Rule R);

  const std::vector<Rule> &rules() const { return Rules; }
  size_t size() const { return Rules.size(); }

  /// Merges all rules of \p Other into this set (they must have been
  /// validated against the same database schema).
  void append(const RuleSet &Other);

private:
  std::vector<Rule> Rules;
};

} // namespace datalog
} // namespace jackee

#endif // JACKEE_DATALOG_RULE_H
