//===- datalog_test.cpp - Unit tests for the Datalog engine ---------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "datalog/Database.h"
#include "datalog/Evaluator.h"
#include "datalog/Rule.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <random>

using namespace jackee;
using namespace jackee::datalog;

namespace {

class DatalogTest : public ::testing::Test {
protected:
  DatalogTest() : DB(Symbols) {}

  Symbol sym(std::string_view Text) { return Symbols.intern(Text); }

  /// Builds `Head(headTerms) :- body...` with variables named by index.
  Rule makeRule(RelationId Head, std::vector<Term> HeadTerms,
                std::vector<Atom> Body, uint32_t VarCount,
                std::vector<Constraint> Constraints = {}) {
    Rule R;
    R.Head = {Head, std::move(HeadTerms), false};
    R.Body = std::move(Body);
    R.Constraints = std::move(Constraints);
    R.VariableCount = VarCount;
    R.Origin = "test";
    return R;
  }

  SymbolTable Symbols;
  Database DB;
  RuleSet Rules;
};

TEST_F(DatalogTest, RelationInsertAndDedup) {
  RelationId R = DB.declare("edge", 2);
  EXPECT_TRUE(DB.insertFact("edge", {"a", "b"}));
  EXPECT_FALSE(DB.insertFact("edge", {"a", "b"}));
  EXPECT_TRUE(DB.insertFact("edge", {"b", "a"}));
  EXPECT_EQ(DB.relation(R).size(), 2u);
  EXPECT_TRUE(DB.containsFact("edge", {"a", "b"}));
  EXPECT_FALSE(DB.containsFact("edge", {"a", "c"}));
}

TEST_F(DatalogTest, BulkLoadDropsRepeatedTuples) {
  // Captured base facts are distinct, but a corrupt snapshot image can
  // repeat a tuple; the relation keeps the first copy, as insert would.
  RelationId R = DB.declare("edge", 2);
  const Symbol Flat[] = {sym("a"), sym("b"), sym("b"), sym("a"),
                         sym("a"), sym("b")};
  DB.relation(R).bulkLoad(Flat);
  EXPECT_EQ(DB.relation(R).size(), 2u);
  EXPECT_TRUE(DB.containsFact("edge", {"a", "b"}));
  EXPECT_TRUE(DB.containsFact("edge", {"b", "a"}));
  EXPECT_TRUE(DB.insertFact("edge", {"c", "d"}));
  EXPECT_EQ(DB.relation(R).size(), 3u);
}

TEST_F(DatalogTest, DedupSurvivesRetractReinsertAndGrowth) {
  // Interleaves inserts, retracts and re-inserts of 6,400 possible tuples
  // while the dedup set grows through many resizes, against a reference
  // map of the live tuples to their dense indexes.
  Relation &R = DB.relation(DB.declare("r", 3));
  using Key = std::array<Symbol, 3>;
  std::map<Key, uint32_t> Live;
  std::mt19937 Rng(5);
  auto Pick = [&Rng] {
    return Key{Symbol(Rng() % 40), Symbol(Rng() % 40), Symbol(Rng() % 4)};
  };
  for (int Step = 0; Step != 30000; ++Step) {
    Key T = Pick();
    auto It = Live.find(T);
    if (It != Live.end() && Rng() % 3 == 0) {
      ASSERT_EQ(R.find(T), It->second);
      R.retract(It->second);
      ASSERT_FALSE(R.contains(T));
      ASSERT_FALSE(R.isLive(It->second));
      Live.erase(It);
      continue;
    }
    uint32_t Before = R.size();
    ASSERT_EQ(R.insert(T), It == Live.end()) << Step;
    if (It == Live.end()) {
      // New or re-inserted after a retract: appended at a fresh index.
      ASSERT_EQ(R.find(T), Before);
      Live.emplace(T, Before);
    }
    ASSERT_EQ(R.liveSize(), Live.size());
  }
  EXPECT_GT(R.deadCount(), 1000u);
  for (uint32_t A = 0; A != 40; ++A)
    for (uint32_t B = 0; B != 40; ++B)
      for (uint32_t C = 0; C != 4; ++C) {
        Key T{Symbol(A), Symbol(B), Symbol(C)};
        auto It = Live.find(T);
        ASSERT_EQ(R.find(T), It == Live.end() ? Relation::NoTuple : It->second);
      }
}

TEST_F(DatalogTest, DeclareIsIdempotent) {
  RelationId A = DB.declare("r", 2);
  RelationId B = DB.declare("r", 2);
  EXPECT_EQ(A, B);
}

TEST_F(DatalogTest, IndexLookupFindsMatchingTuples) {
  RelationId R = DB.declare("edge", 2);
  DB.insertFact("edge", {"a", "b"});
  DB.insertFact("edge", {"a", "c"});
  DB.insertFact("edge", {"b", "c"});

  std::vector<uint32_t> Cols{0};
  std::vector<Symbol> Key{sym("a")};
  const auto &Postings = DB.relation(R).lookup(Cols, Key);
  // Postings are hash-keyed; all true matches must be present.
  int Matches = 0;
  for (uint32_t Idx : Postings)
    if (DB.relation(R).tuple(Idx)[0] == sym("a"))
      ++Matches;
  EXPECT_EQ(Matches, 2);
}

TEST_F(DatalogTest, IndexStaysCurrentAfterInsert) {
  RelationId R = DB.declare("edge", 2);
  DB.insertFact("edge", {"a", "b"});
  std::vector<uint32_t> Cols{0};
  std::vector<Symbol> Key{sym("a")};
  (void)DB.relation(R).lookup(Cols, Key); // build index
  DB.insertFact("edge", {"a", "z"});
  const auto &Postings = DB.relation(R).lookup(Cols, Key);
  int Matches = 0;
  for (uint32_t Idx : Postings)
    if (DB.relation(R).tuple(Idx)[0] == sym("a"))
      ++Matches;
  EXPECT_EQ(Matches, 2);
}

TEST_F(DatalogTest, SimpleJoin) {
  RelationId Edge = DB.declare("edge", 2);
  RelationId TwoHop = DB.declare("twohop", 2);
  DB.insertFact("edge", {"a", "b"});
  DB.insertFact("edge", {"b", "c"});
  DB.insertFact("edge", {"c", "d"});

  // twohop(x, z) :- edge(x, y), edge(y, z).
  Rule R = makeRule(
      TwoHop, {Term::variable(0), Term::variable(2)},
      {{Edge, {Term::variable(0), Term::variable(1)}, false},
       {Edge, {Term::variable(1), Term::variable(2)}, false}},
      3);
  ASSERT_EQ(Rules.add(DB, R), "");

  Evaluator Eval(DB, Rules);
  ASSERT_EQ(Eval.validate(), "");
  Eval.run();

  EXPECT_EQ(DB.relation(TwoHop).size(), 2u);
  EXPECT_TRUE(DB.containsFact("twohop", {"a", "c"}));
  EXPECT_TRUE(DB.containsFact("twohop", {"b", "d"}));
}

TEST_F(DatalogTest, TransitiveClosure) {
  RelationId Edge = DB.declare("edge", 2);
  RelationId Path = DB.declare("path", 2);
  for (auto [A, B] : std::vector<std::pair<const char *, const char *>>{
           {"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}})
    DB.insertFact("edge", {A, B});

  // path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), edge(y,z).
  ASSERT_EQ(Rules.add(DB, makeRule(Path,
                                   {Term::variable(0), Term::variable(1)},
                                   {{Edge,
                                     {Term::variable(0), Term::variable(1)},
                                     false}},
                                   2)),
            "");
  ASSERT_EQ(
      Rules.add(DB, makeRule(Path, {Term::variable(0), Term::variable(2)},
                             {{Path, {Term::variable(0), Term::variable(1)},
                               false},
                              {Edge, {Term::variable(1), Term::variable(2)},
                               false}},
                             3)),
      "");

  Evaluator Eval(DB, Rules);
  ASSERT_EQ(Eval.validate(), "");
  Eval.run();

  // 4+3+2+1 = 10 pairs.
  EXPECT_EQ(DB.relation(Path).size(), 10u);
  EXPECT_TRUE(DB.containsFact("path", {"a", "e"}));
  EXPECT_FALSE(DB.containsFact("path", {"e", "a"}));
}

TEST_F(DatalogTest, ConstantInBodyFilters) {
  RelationId In = DB.declare("in", 2);
  RelationId Out = DB.declare("out", 1);
  DB.insertFact("in", {"x", "keep"});
  DB.insertFact("in", {"y", "drop"});

  // out(a) :- in(a, "keep").
  ASSERT_EQ(Rules.add(DB, makeRule(Out, {Term::variable(0)},
                                   {{In,
                                     {Term::variable(0),
                                      Term::constant(sym("keep"))},
                                     false}},
                                   1)),
            "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_EQ(DB.relation(Out).size(), 1u);
  EXPECT_TRUE(DB.containsFact("out", {"x"}));
}

TEST_F(DatalogTest, ConstantInHead) {
  RelationId In = DB.declare("in", 1);
  RelationId Out = DB.declare("out", 2);
  DB.insertFact("in", {"a"});

  // out(x, "tag") :- in(x).
  ASSERT_EQ(Rules.add(DB, makeRule(Out,
                                   {Term::variable(0),
                                    Term::constant(sym("tag"))},
                                   {{In, {Term::variable(0)}, false}}, 1)),
            "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_TRUE(DB.containsFact("out", {"a", "tag"}));
}

TEST_F(DatalogTest, RepeatedVariableInAtom) {
  RelationId Edge = DB.declare("edge", 2);
  RelationId SelfLoop = DB.declare("selfloop", 1);
  DB.insertFact("edge", {"a", "a"});
  DB.insertFact("edge", {"a", "b"});

  // selfloop(x) :- edge(x, x).
  ASSERT_EQ(Rules.add(DB, makeRule(SelfLoop, {Term::variable(0)},
                                   {{Edge,
                                     {Term::variable(0), Term::variable(0)},
                                     false}},
                                   1)),
            "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_EQ(DB.relation(SelfLoop).size(), 1u);
  EXPECT_TRUE(DB.containsFact("selfloop", {"a"}));
}

TEST_F(DatalogTest, StratifiedNegation) {
  RelationId Node = DB.declare("node", 1);
  RelationId HasEdge = DB.declare("hasedge", 1);
  RelationId Isolated = DB.declare("isolated", 1);
  DB.insertFact("node", {"a"});
  DB.insertFact("node", {"b"});
  DB.insertFact("hasedge", {"a"});

  // isolated(x) :- node(x), !hasedge(x).
  ASSERT_EQ(Rules.add(DB, makeRule(Isolated, {Term::variable(0)},
                                   {{Node, {Term::variable(0)}, false},
                                    {HasEdge, {Term::variable(0)}, true}},
                                   1)),
            "");
  Evaluator Eval(DB, Rules);
  ASSERT_EQ(Eval.validate(), "");
  Eval.run();
  EXPECT_EQ(DB.relation(Isolated).size(), 1u);
  EXPECT_TRUE(DB.containsFact("isolated", {"b"}));
}

TEST_F(DatalogTest, NegationAcrossStrata) {
  // reach via edges; unreach = node but not reach. Negation of a recursive
  // predicate from a later stratum.
  RelationId Node = DB.declare("node", 1);
  RelationId Edge = DB.declare("edge", 2);
  RelationId Reach = DB.declare("reach", 1);
  RelationId Unreach = DB.declare("unreach", 1);
  for (const char *N : {"a", "b", "c", "d"})
    DB.insertFact("node", {N});
  DB.insertFact("edge", {"a", "b"});
  DB.insertFact("edge", {"b", "c"});
  DB.insertFact("reach", {"a"});

  // reach(y) :- reach(x), edge(x, y).
  ASSERT_EQ(
      Rules.add(DB, makeRule(Reach, {Term::variable(1)},
                             {{Reach, {Term::variable(0)}, false},
                              {Edge, {Term::variable(0), Term::variable(1)},
                               false}},
                             2)),
      "");
  // unreach(x) :- node(x), !reach(x).
  ASSERT_EQ(Rules.add(DB, makeRule(Unreach, {Term::variable(0)},
                                   {{Node, {Term::variable(0)}, false},
                                    {Reach, {Term::variable(0)}, true}},
                                   1)),
            "");

  Evaluator Eval(DB, Rules);
  ASSERT_EQ(Eval.validate(), "");
  Eval.run();
  EXPECT_EQ(DB.relation(Unreach).size(), 1u);
  EXPECT_TRUE(DB.containsFact("unreach", {"d"}));
}

TEST_F(DatalogTest, UnstratifiableIsRejected) {
  RelationId P = DB.declare("p", 1);
  RelationId Q = DB.declare("q", 1);
  DB.insertFact("p", {"a"});

  // q(x) :- p(x), !q(x).  -- negation within its own SCC
  ASSERT_EQ(Rules.add(DB, makeRule(Q, {Term::variable(0)},
                                   {{P, {Term::variable(0)}, false},
                                    {Q, {Term::variable(0)}, true}},
                                   1)),
            "");
  Evaluator Eval(DB, Rules);
  EXPECT_NE(Eval.validate(), "");
}

TEST_F(DatalogTest, UnsafeRuleRejected) {
  RelationId P = DB.declare("p", 1);
  RelationId Q = DB.declare("q", 1);
  // q(x) :- p(y).  -- head variable not bound
  Rule R = makeRule(Q, {Term::variable(0)},
                    {{P, {Term::variable(1)}, false}}, 2);
  EXPECT_NE(Rules.add(DB, R), "");
}

TEST_F(DatalogTest, ArityMismatchRejected) {
  RelationId P = DB.declare("p", 2);
  RelationId Q = DB.declare("q", 1);
  Rule R = makeRule(Q, {Term::variable(0)},
                    {{P, {Term::variable(0)}, false}}, 1);
  EXPECT_NE(Rules.add(DB, R), "");
}

TEST_F(DatalogTest, NotEqualConstraint) {
  RelationId Edge = DB.declare("edge", 2);
  RelationId NonLoop = DB.declare("nonloop", 2);
  DB.insertFact("edge", {"a", "a"});
  DB.insertFact("edge", {"a", "b"});

  Constraint C;
  C.CompareKind = Constraint::Kind::NotEqual;
  C.Lhs = Term::variable(0);
  C.Rhs = Term::variable(1);
  ASSERT_EQ(
      Rules.add(DB, makeRule(NonLoop, {Term::variable(0), Term::variable(1)},
                             {{Edge, {Term::variable(0), Term::variable(1)},
                               false}},
                             2, {C})),
      "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_EQ(DB.relation(NonLoop).size(), 1u);
  EXPECT_TRUE(DB.containsFact("nonloop", {"a", "b"}));
}

TEST_F(DatalogTest, RerunPicksUpNewFacts) {
  RelationId Edge = DB.declare("edge", 2);
  RelationId Path = DB.declare("path", 2);
  DB.insertFact("edge", {"a", "b"});
  ASSERT_EQ(Rules.add(DB, makeRule(Path,
                                   {Term::variable(0), Term::variable(1)},
                                   {{Edge,
                                     {Term::variable(0), Term::variable(1)},
                                     false}},
                                   2)),
            "");
  ASSERT_EQ(
      Rules.add(DB, makeRule(Path, {Term::variable(0), Term::variable(2)},
                             {{Path, {Term::variable(0), Term::variable(1)},
                               false},
                              {Edge, {Term::variable(1), Term::variable(2)},
                               false}},
                             3)),
      "");

  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_EQ(DB.relation(Path).size(), 1u);

  // Inject a fact externally (as the bean-wiring plugin loop does) and
  // re-run: the new consequences must appear.
  DB.insertFact("edge", {"b", "c"});
  Eval.run();
  EXPECT_EQ(DB.relation(Path).size(), 3u);
  EXPECT_TRUE(DB.containsFact("path", {"a", "c"}));
}

TEST_F(DatalogTest, FactRule) {
  RelationId P = DB.declare("p", 2);
  ASSERT_EQ(Rules.add(DB, makeRule(P,
                                   {Term::constant(sym("a")),
                                    Term::constant(sym("b"))},
                                   {}, 0)),
            "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_TRUE(DB.containsFact("p", {"a", "b"}));
}

TEST_F(DatalogTest, MutualRecursion) {
  // even/odd over a successor chain: tests multi-predicate SCC.
  RelationId Succ = DB.declare("succ", 2);
  RelationId Even = DB.declare("even", 1);
  RelationId Odd = DB.declare("odd", 1);
  for (auto [A, B] : std::vector<std::pair<const char *, const char *>>{
           {"0", "1"}, {"1", "2"}, {"2", "3"}, {"3", "4"}})
    DB.insertFact("succ", {A, B});
  DB.insertFact("even", {"0"});

  // odd(y) :- even(x), succ(x, y).  even(y) :- odd(x), succ(x, y).
  ASSERT_EQ(
      Rules.add(DB, makeRule(Odd, {Term::variable(1)},
                             {{Even, {Term::variable(0)}, false},
                              {Succ, {Term::variable(0), Term::variable(1)},
                               false}},
                             2)),
      "");
  ASSERT_EQ(
      Rules.add(DB, makeRule(Even, {Term::variable(1)},
                             {{Odd, {Term::variable(0)}, false},
                              {Succ, {Term::variable(0), Term::variable(1)},
                               false}},
                             2)),
      "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_TRUE(DB.containsFact("even", {"4"}));
  EXPECT_TRUE(DB.containsFact("odd", {"3"}));
  EXPECT_FALSE(DB.containsFact("even", {"3"}));
  EXPECT_EQ(DB.relation(Even).size(), 3u);
  EXPECT_EQ(DB.relation(Odd).size(), 2u);
}

TEST_F(DatalogTest, StatsCountDerivedTuples) {
  RelationId Edge = DB.declare("edge", 2);
  RelationId Copy = DB.declare("copy", 2);
  DB.insertFact("edge", {"a", "b"});
  DB.insertFact("edge", {"b", "c"});
  ASSERT_EQ(Rules.add(DB, makeRule(Copy,
                                   {Term::variable(0), Term::variable(1)},
                                   {{Edge,
                                     {Term::variable(0), Term::variable(1)},
                                     false}},
                                   2)),
            "");
  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_EQ(Eval.stats().TuplesDerived, 2u);
  EXPECT_GE(Eval.stats().StratumCount, 1u);
}

/// Property-style sweep: transitive closure over chain graphs of various
/// lengths must contain exactly n*(n-1)/2 pairs.
class ChainClosureTest : public ::testing::TestWithParam<int> {};

TEST_P(ChainClosureTest, PairCountMatchesFormula) {
  int N = GetParam();
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;
  RelationId Edge = DB.declare("edge", 2);
  RelationId Path = DB.declare("path", 2);
  for (int I = 0; I + 1 < N; ++I)
    DB.insertFact("edge",
                  {std::to_string(I), std::to_string(I + 1)});

  Rule Base;
  Base.Head = {Path, {Term::variable(0), Term::variable(1)}, false};
  Base.Body = {{Edge, {Term::variable(0), Term::variable(1)}, false}};
  Base.VariableCount = 2;
  Base.Origin = "test";
  ASSERT_EQ(Rules.add(DB, Base), "");

  Rule Step;
  Step.Head = {Path, {Term::variable(0), Term::variable(2)}, false};
  Step.Body = {{Path, {Term::variable(0), Term::variable(1)}, false},
               {Edge, {Term::variable(1), Term::variable(2)}, false}};
  Step.VariableCount = 3;
  Step.Origin = "test";
  ASSERT_EQ(Rules.add(DB, Step), "");

  Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_EQ(DB.relation(Path).size(),
            static_cast<uint32_t>(N * (N - 1) / 2));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChainClosureTest,
                         ::testing::Values(2, 3, 5, 10, 25, 60));

} // namespace
