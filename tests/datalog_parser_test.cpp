//===- datalog_parser_test.cpp - Rule-text frontend tests -----------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "datalog/Evaluator.h"
#include "datalog/Parser.h"

#include <gtest/gtest.h>

using namespace jackee;
using namespace jackee::datalog;

namespace {

class ParserTest : public ::testing::Test {
protected:
  ParserTest() : DB(Symbols) {}

  ParserResult parse(std::string_view Text) {
    return parseRules(DB, Rules, Text, "test.dl");
  }

  void evaluate() {
    Evaluator Eval(DB, Rules);
    ASSERT_EQ(Eval.validate(), "");
    Eval.run();
  }

  SymbolTable Symbols;
  Database DB;
  RuleSet Rules;
};

TEST_F(ParserTest, DeclAndFact) {
  ParserResult R = parse(R"(
    .decl edge(a: symbol, b: symbol)
    edge("x", "y").
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.RelationsDeclared, 1u);
  EXPECT_EQ(R.RulesAdded, 1u);
  evaluate();
  EXPECT_TRUE(DB.containsFact("edge", {"x", "y"}));
}

TEST_F(ParserTest, TransitiveClosureText) {
  ParserResult R = parse(R"(
    .decl edge(a: symbol, b: symbol)
    .decl path(a: symbol, b: symbol)
    edge("a", "b"). edge("b", "c"). edge("c", "d").
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  evaluate();
  EXPECT_TRUE(DB.containsFact("path", {"a", "d"}));
  EXPECT_EQ(DB.relation(DB.find("path")).size(), 6u);
}

TEST_F(ParserTest, DisjunctionDesugarsToMultipleRules) {
  ParserResult R = parse(R"(
    .decl a(x: symbol)
    .decl b(x: symbol)
    .decl either(x: symbol)
    a("1"). b("2").
    either(x) :- (a(x) ; b(x)).
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.RulesAdded, 4u); // 2 facts + 2 desugared
  evaluate();
  EXPECT_TRUE(DB.containsFact("either", {"1"}));
  EXPECT_TRUE(DB.containsFact("either", {"2"}));
}

TEST_F(ParserTest, DisjunctionWithSharedContext) {
  // Mirrors the paper's servlet-parameter rule: a shared prefix plus a
  // disjunction over two subtype checks.
  ParserResult R = parse(R"(
    .decl Param(m: symbol, t: symbol)
    .decl Sub(a: symbol, b: symbol)
    .decl Entry(m: symbol)
    Param("m1", "ReqImpl"). Param("m2", "Other").
    Sub("ReqImpl", "ServletRequest"). Sub("Other", "Unrelated").
    Entry(m) :-
      Param(m, t),
      (Sub(t, "ServletRequest") ; Sub(t, "ServletResponse")).
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  evaluate();
  EXPECT_TRUE(DB.containsFact("Entry", {"m1"}));
  EXPECT_FALSE(DB.containsFact("Entry", {"m2"}));
}

TEST_F(ParserTest, NestedDisjunction) {
  ParserResult R = parse(R"(
    .decl a(x: symbol)
    .decl b(x: symbol)
    .decl c(x: symbol)
    .decl out(x: symbol)
    a("1"). b("2"). c("3").
    out(x) :- (a(x) ; (b(x) ; c(x))).
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  evaluate();
  EXPECT_TRUE(DB.containsFact("out", {"1"}));
  EXPECT_TRUE(DB.containsFact("out", {"2"}));
  EXPECT_TRUE(DB.containsFact("out", {"3"}));
}

TEST_F(ParserTest, MultiHeadRule) {
  // The paper's JAX-RS rule declares three heads at once.
  ParserResult R = parse(R"(
    .decl Annot(m: symbol, a: symbol)
    .decl EntryPointClass(c: symbol)
    .decl RESTResource(c: symbol)
    .decl DeclaringType(m: symbol, c: symbol)
    Annot("m", "javax.ws.rs.GET").
    DeclaringType("m", "C").
    EntryPointClass(c),
    RESTResource(c) :-
      DeclaringType(m, c),
      Annot(m, "javax.ws.rs.GET").
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  evaluate();
  EXPECT_TRUE(DB.containsFact("EntryPointClass", {"C"}));
  EXPECT_TRUE(DB.containsFact("RESTResource", {"C"}));
}

TEST_F(ParserTest, NegationText) {
  ParserResult R = parse(R"(
    .decl node(x: symbol)
    .decl covered(x: symbol)
    .decl bare(x: symbol)
    node("a"). node("b"). covered("a").
    bare(x) :- node(x), !covered(x).
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  evaluate();
  EXPECT_TRUE(DB.containsFact("bare", {"b"}));
  EXPECT_FALSE(DB.containsFact("bare", {"a"}));
}

TEST_F(ParserTest, ConstraintsText) {
  ParserResult R = parse(R"(
    .decl pair(a: symbol, b: symbol)
    .decl diff(a: symbol, b: symbol)
    .decl same(a: symbol)
    pair("x", "x"). pair("x", "y").
    diff(a, b) :- pair(a, b), a != b.
    same(a) :- pair(a, b), a = b.
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  evaluate();
  EXPECT_TRUE(DB.containsFact("diff", {"x", "y"}));
  EXPECT_FALSE(DB.containsFact("diff", {"x", "x"}));
  EXPECT_TRUE(DB.containsFact("same", {"x"}));
}

TEST_F(ParserTest, WildcardTerm) {
  ParserResult R = parse(R"(
    .decl edge(a: symbol, b: symbol)
    .decl hasOut(a: symbol)
    edge("a", "b"). edge("a", "c").
    hasOut(x) :- edge(x, _).
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  evaluate();
  EXPECT_EQ(DB.relation(DB.find("hasOut")).size(), 1u);
}

TEST_F(ParserTest, CommentsEverywhere) {
  ParserResult R = parse(R"(
    // line comment
    .decl r(x: symbol) /* block
       comment */
    r("a"). // trailing
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
}

TEST_F(ParserTest, NumberLiterals) {
  ParserResult R = parse(R"(
    .decl n(x: number)
    n(42).
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  evaluate();
  EXPECT_TRUE(DB.containsFact("n", {"42"}));
}

TEST_F(ParserTest, ErrorUndeclaredRelation) {
  ParserResult R = parse(R"(
    .decl a(x: symbol)
    a(x) :- missing(x).
  )");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("undeclared"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("missing"), std::string::npos) << R.Error;
}

TEST_F(ParserTest, ErrorMissingPeriod) {
  ParserResult R = parse(R"(
    .decl a(x: symbol)
    .decl b(x: symbol)
    a(x) :- b(x)
  )");
  ASSERT_FALSE(R.Ok);
}

TEST_F(ParserTest, ErrorUnsafeHeadVariable) {
  ParserResult R = parse(R"(
    .decl a(x: symbol)
    .decl b(x: symbol)
    a(y) :- b(x).
  )");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unsafe"), std::string::npos) << R.Error;
}

TEST_F(ParserTest, ErrorArityRedeclaration) {
  ParserResult R = parse(R"(
    .decl a(x: symbol)
    .decl a(x: symbol, y: symbol)
  )");
  ASSERT_FALSE(R.Ok);
}

TEST_F(ParserTest, ErrorHasLineNumber) {
  ParserResult R = parse("\n\n.decl a(x: symbol)\na(x) :- nope(x).\n");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("line 4"), std::string::npos) << R.Error;
}

TEST_F(ParserTest, GroupNestingUpToTheBoundParses) {
  ParserResult R = parse(".decl a(x: symbol)\n.decl b(x: symbol)\na(x) :- " +
                         std::string(MaxGroupDepth, '(') + "b(x)" +
                         std::string(MaxGroupDepth, ')') + ".");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.RulesAdded, 1u);
}

TEST_F(ParserTest, ErrorGroupNestingPastTheBound) {
  ParserResult R = parse(".decl a(x: symbol)\n.decl b(x: symbol)\na(x) :- " +
                         std::string(MaxGroupDepth + 1, '(') + "b(x)" +
                         std::string(MaxGroupDepth + 1, ')') + ".");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("deeper than " + std::to_string(MaxGroupDepth)),
            std::string::npos)
      << R.Error;
}

TEST_F(ParserTest, FlatBodyOfManyAtoms) {
  // Desugaring walks a flat body in a loop: 100,000 atoms must not grow the
  // stack with the body length.
  constexpr size_t Atoms = 100000;
  std::string Text = ".decl a(x: symbol)\n.decl b(x: symbol)\na(x) :- b(x)";
  for (size_t I = 1; I != Atoms; ++I)
    Text += ", b(x)";
  Text += ".";
  ParserResult R = parse(Text);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(Rules.size(), 1u);
  EXPECT_EQ(Rules.rules()[0].Body.size(), Atoms);
}

TEST_F(ParserTest, ErrorDisjunctionProductPastTheBound) {
  // Each two-way group doubles the desugared bodies: 12 groups expand to
  // exactly the bound, 13 to twice it.
  auto Rule = [](int Groups) {
    std::string Text = "a(x) :- b(x)";
    for (int I = 0; I != Groups; ++I)
      Text += ", (b(x) ; c(x))";
    return Text + ".\n";
  };
  static_assert(MaxBodyAlternatives == size_t(1) << 12);
  ParserResult R =
      parse(".decl a(x: symbol)\n.decl b(x: symbol)\n.decl c(x: symbol)\n" +
            Rule(12));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.RulesAdded, MaxBodyAlternatives);
  R = parse(Rule(13));
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("more than " + std::to_string(MaxBodyAlternatives)),
            std::string::npos)
      << R.Error;
}

TEST_F(ParserTest, AnnotationStyleIdentifiersAsConstants) {
  // Annotation names with dots and @ appear as quoted constants in rules —
  // exactly how the paper writes Spring models.
  ParserResult R = parse(R"(
    .decl Class_Annotation(c: symbol, a: symbol)
    .decl Controller(c: symbol)
    Class_Annotation("com.app.Ctl", "org.springframework.stereotype.@Controller").
    Controller(class) :-
      Class_Annotation(class, "org.springframework.stereotype.@Controller").
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  evaluate();
  EXPECT_TRUE(DB.containsFact("Controller", {"com.app.Ctl"}));
}

TEST_F(ParserTest, PaperServletRuleEndToEnd) {
  // Section 3.4.1's first rule, nearly verbatim.
  ParserResult R = parse(R"(
    .decl ConcreteApplicationClass(c: symbol)
    .decl SubtypeOf(a: symbol, b: symbol)
    .decl Servlet(c: symbol)
    ConcreteApplicationClass("com.app.MainServlet").
    ConcreteApplicationClass("com.app.Helper").
    SubtypeOf("com.app.MainServlet", "javax.servlet.GenericServlet").
    Servlet(class) :-
      ConcreteApplicationClass(class),
      SubtypeOf(class, "javax.servlet.GenericServlet").
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  evaluate();
  EXPECT_TRUE(DB.containsFact("Servlet", {"com.app.MainServlet"}));
  EXPECT_FALSE(DB.containsFact("Servlet", {"com.app.Helper"}));
}

} // namespace
