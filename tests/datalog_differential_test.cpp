//===- datalog_differential_test.cpp - Engine vs naive reference -----------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Differential testing of the semi-naive engine: random (seeded) Datalog
// programs are evaluated both by the production evaluator and by the
// independent brute-force reference in NaiveEvaluator.h (sets of tuple
// vectors, naive rule application to fixpoint). The two must derive
// identical relations.
//
//===----------------------------------------------------------------------===//

#include "NaiveEvaluator.h"

#include "datalog/Database.h"
#include "datalog/Evaluator.h"
#include "datalog/Rule.h"

#include <gtest/gtest.h>

#include <random>

using namespace jackee;
using namespace jackee::datalog;
using jackee::test::NaiveEvaluator;

namespace {

/// Seeded random program: base relations with random facts, derived
/// relations with random safe rules (positive bodies, occasional
/// constraints, occasional negation on base relations — keeping the
/// program trivially stratified).
class DifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DifferentialTest, EngineMatchesNaiveReference) {
  std::mt19937 Rng(GetParam());
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;

  // Universe of constants.
  std::vector<Symbol> Universe;
  for (int I = 0; I != 6; ++I)
    Universe.push_back(Symbols.intern(std::string(1, char('a' + I))));
  auto randomSym = [&] { return Universe[Rng() % Universe.size()]; };

  // Base relations with random facts.
  std::vector<RelationId> Base;
  std::vector<uint32_t> BaseArity;
  for (int I = 0; I != 3; ++I) {
    uint32_t Arity = 1 + Rng() % 2;
    RelationId R = DB.declare("base" + std::to_string(I), Arity);
    Base.push_back(R);
    BaseArity.push_back(Arity);
    uint32_t Facts = 2 + Rng() % 8;
    for (uint32_t F = 0; F != Facts; ++F) {
      std::vector<Symbol> T;
      for (uint32_t C = 0; C != Arity; ++C)
        T.push_back(randomSym());
      DB.relation(R).insert(T);
    }
  }

  // Derived relations, each arity 1-2.
  std::vector<RelationId> Derived;
  std::vector<uint32_t> DerivedArity;
  for (int I = 0; I != 3; ++I) {
    uint32_t Arity = 1 + Rng() % 2;
    Derived.push_back(DB.declare("derived" + std::to_string(I), Arity));
    DerivedArity.push_back(Arity);
  }

  // Random rules. Head: a derived relation; body: 1-3 positive atoms over
  // any relation (recursion allowed), maybe one negated base atom, maybe a
  // disequality.
  uint32_t RuleCount = 3 + Rng() % 5;
  uint32_t Added = 0;
  for (uint32_t RI = 0; RI != RuleCount; ++RI) {
    Rule R;
    uint32_t HeadIdx = Rng() % Derived.size();
    uint32_t VarCounter = 0;
    std::vector<uint32_t> BoundVars;

    uint32_t BodyAtoms = 1 + Rng() % 3;
    for (uint32_t B = 0; B != BodyAtoms; ++B) {
      bool FromBase = Rng() % 2 == 0;
      uint32_t Idx = FromBase ? Rng() % Base.size() : Rng() % Derived.size();
      RelationId Rel = FromBase ? Base[Idx] : Derived[Idx];
      uint32_t Arity = FromBase ? BaseArity[Idx] : DerivedArity[Idx];
      Atom A;
      A.Rel = Rel;
      for (uint32_t C = 0; C != Arity; ++C) {
        switch (Rng() % 4) {
        case 0:
          A.Terms.push_back(Term::constant(randomSym()));
          break;
        case 1:
          if (!BoundVars.empty()) {
            A.Terms.push_back(
                Term::variable(BoundVars[Rng() % BoundVars.size()]));
            break;
          }
          [[fallthrough]];
        default:
          A.Terms.push_back(Term::variable(VarCounter));
          BoundVars.push_back(VarCounter);
          ++VarCounter;
        }
      }
      R.Body.push_back(std::move(A));
    }

    // Optional negated atom over a base relation, all-bound terms.
    if (Rng() % 3 == 0 && !BoundVars.empty()) {
      uint32_t Idx = Rng() % Base.size();
      Atom A;
      A.Rel = Base[Idx];
      A.Negated = true;
      for (uint32_t C = 0; C != BaseArity[Idx]; ++C)
        A.Terms.push_back(
            Rng() % 2 ? Term::constant(randomSym())
                      : Term::variable(BoundVars[Rng() % BoundVars.size()]));
      R.Body.push_back(std::move(A));
    }

    // Optional disequality between two bound variables.
    if (Rng() % 3 == 0 && BoundVars.size() >= 2) {
      Constraint C;
      C.CompareKind = Constraint::Kind::NotEqual;
      C.Lhs = Term::variable(BoundVars[Rng() % BoundVars.size()]);
      C.Rhs = Term::variable(BoundVars[Rng() % BoundVars.size()]);
      R.Constraints.push_back(C);
    }

    // Head terms: bound variables or constants.
    uint32_t HeadArity = DerivedArity[HeadIdx];
    R.Head.Rel = Derived[HeadIdx];
    for (uint32_t C = 0; C != HeadArity; ++C)
      R.Head.Terms.push_back(
          BoundVars.empty() || Rng() % 4 == 0
              ? Term::constant(randomSym())
              : Term::variable(BoundVars[Rng() % BoundVars.size()]));
    R.VariableCount = VarCounter;
    R.Origin = "differential";
    if (Rules.add(DB, std::move(R)).empty())
      ++Added;
  }
  ASSERT_GT(Added, 0u) << "seed produced no valid rules";

  // Reference evaluation on a snapshot of the facts (before the engine
  // mutates the database).
  NaiveEvaluator Reference(DB, Rules);
  Reference.run();

  Evaluator Engine(DB, Rules);
  ASSERT_EQ(Engine.validate(), "");
  Engine.run();

  for (uint32_t Rel = 0; Rel != DB.relationCount(); ++Rel)
    EXPECT_EQ(test::contentsOf(DB, Rel), Reference.contents(Rel))
        << "relation " << DB.relation(RelationId(Rel)).name() << " (seed "
        << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range(1u, 41u));

} // namespace
