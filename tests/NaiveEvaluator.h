//===- NaiveEvaluator.h - Brute-force Datalog reference ---------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// The independent oracle for the Datalog engine. It keeps each relation as
// a set of tuple vectors and applies every rule against full relation
// contents until nothing changes, one stratum after another. It shares only
// the rule representation with the engine: no relations, indexes, join
// plans, deltas or Tarjan stratification, so a test that compares the
// engine against it checks the engine, not one engine run against another.
//
//===----------------------------------------------------------------------===//

#ifndef JACKEE_TESTS_NAIVEEVALUATOR_H
#define JACKEE_TESTS_NAIVEEVALUATOR_H

#include "datalog/Database.h"
#include "datalog/Rule.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

namespace jackee {
namespace test {

using Tuple = std::vector<uint32_t>; ///< raw symbol values
using RelationContents = std::set<Tuple>;

/// The tuples of relation \p Rel of \p DB, as a set.
inline RelationContents contentsOf(const datalog::Database &DB,
                                   uint32_t Rel) {
  RelationContents Result;
  const datalog::Relation &R = DB.relation(datalog::RelationId(Rel));
  for (uint32_t T = 0; T != R.size(); ++T) {
    Tuple Tup;
    for (uint32_t C = 0; C != R.arity(); ++C)
      Tup.push_back(R.tuple(T)[C].rawValue());
    Result.insert(Tup);
  }
  return Result;
}

/// Every relation of \p DB, in relation-id order.
inline std::vector<RelationContents>
allContentsOf(const datalog::Database &DB) {
  std::vector<RelationContents> Result;
  for (uint32_t Rel = 0; Rel != DB.relationCount(); ++Rel)
    Result.push_back(contentsOf(DB, Rel));
  return Result;
}

/// Brute-force reference evaluation of a stratifiable rule set.
class NaiveEvaluator {
public:
  /// Copies every relation of \p DB as the starting facts, so construct it
  /// before the engine runs on the same database.
  NaiveEvaluator(const datalog::Database &DB, const datalog::RuleSet &Rules)
      : Rules(Rules), Contents(allContentsOf(DB)),
        Stratum(DB.relationCount(), 0) {
    // A head sits at or above every relation its body reads, and strictly
    // above every relation it negates. Strata of a stratifiable program
    // settle within one pass per relation.
    bool Changed = true;
    for (size_t Pass = 0; Changed && Pass <= Stratum.size(); ++Pass) {
      Changed = false;
      for (const datalog::Rule &R : Rules.rules())
        for (const datalog::Atom &A : R.Body) {
          uint32_t Need = Stratum[A.Rel.index()] + (A.Negated ? 1 : 0);
          if (Stratum[R.Head.Rel.index()] < Need) {
            Stratum[R.Head.Rel.index()] = Need;
            Changed = true;
          }
        }
    }
  }

  /// Runs each stratum's rules to fixpoint, lowest stratum first.
  void run() {
    uint32_t Top = Stratum.empty()
                       ? 0
                       : *std::max_element(Stratum.begin(), Stratum.end());
    for (uint32_t S = 0; S <= Top; ++S) {
      bool Changed = true;
      while (Changed) {
        Changed = false;
        for (const datalog::Rule &R : Rules.rules())
          if (Stratum[R.Head.Rel.index()] == S)
            Changed |= applyRule(R);
      }
    }
  }

  const RelationContents &contents(uint32_t Rel) const {
    return Contents[Rel];
  }
  const std::vector<RelationContents> &allContents() const {
    return Contents;
  }

private:
  bool applyRule(const datalog::Rule &R) {
    std::vector<uint32_t> Bindings(R.VariableCount, ~0u);
    return matchFrom(R, 0, Bindings);
  }

  // Enumerate positive atoms in body order; negation and constraints are
  // checked at the end (rule safety guarantees everything is bound then).
  bool matchFrom(const datalog::Rule &R, size_t AtomIndex,
                 std::vector<uint32_t> &Bindings) {
    while (AtomIndex < R.Body.size() && R.Body[AtomIndex].Negated)
      ++AtomIndex;
    if (AtomIndex == R.Body.size())
      return finishMatch(R, Bindings);

    const datalog::Atom &A = R.Body[AtomIndex];
    bool Changed = false;
    std::vector<uint32_t> Fresh; // variables this atom binds
    for (const Tuple &T : Contents[A.Rel.index()]) {
      Fresh.clear();
      bool Ok = true;
      for (size_t C = 0; C != A.Terms.size() && Ok; ++C) {
        const datalog::Term &Tm = A.Terms[C];
        if (Tm.isConstant()) {
          Ok = T[C] == Tm.Value.rawValue();
        } else if (Bindings[Tm.VarIndex] != ~0u) {
          Ok = T[C] == Bindings[Tm.VarIndex];
        } else {
          Bindings[Tm.VarIndex] = T[C];
          Fresh.push_back(Tm.VarIndex);
        }
      }
      if (Ok)
        Changed |= matchFrom(R, AtomIndex + 1, Bindings);
      for (uint32_t V : Fresh)
        Bindings[V] = ~0u;
    }
    return Changed;
  }

  bool finishMatch(const datalog::Rule &R,
                   const std::vector<uint32_t> &Bindings) {
    auto valueOf = [&](const datalog::Term &T) {
      return T.isConstant() ? T.Value.rawValue() : Bindings[T.VarIndex];
    };
    for (const datalog::Constraint &C : R.Constraints) {
      bool Equal = valueOf(C.Lhs) == valueOf(C.Rhs);
      if (C.CompareKind == datalog::Constraint::Kind::Equal ? !Equal : Equal)
        return false;
    }
    for (const datalog::Atom &A : R.Body) {
      if (!A.Negated)
        continue;
      Tuple T;
      for (const datalog::Term &Tm : A.Terms)
        T.push_back(valueOf(Tm));
      if (Contents[A.Rel.index()].count(T))
        return false;
    }
    Tuple Head;
    for (const datalog::Term &Tm : R.Head.Terms)
      Head.push_back(valueOf(Tm));
    return Contents[R.Head.Rel.index()].insert(Head).second;
  }

  const datalog::RuleSet &Rules;
  std::vector<RelationContents> Contents;
  std::vector<uint32_t> Stratum; ///< per relation id
};

} // namespace test
} // namespace jackee

#endif // JACKEE_TESTS_NAIVEEVALUATOR_H
