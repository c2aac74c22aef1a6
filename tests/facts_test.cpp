//===- facts_test.cpp - Fact extraction tests ------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// The extractor produces the paper's Figure 1/2 base relations; these tests
// pin the schema, the entity encoding round-trip, the shape of the
// extracted tuples for a small program and an XML config (under an explicit
// all-relations demand), and that a partial demand fills only its
// relations.
//
//===----------------------------------------------------------------------===//

#include "facts/Extractor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

using namespace jackee;
using namespace jackee::facts;
using namespace jackee::ir;

namespace {

class FactsTest : public ::testing::Test {
protected:
  FactsTest() : DB(Symbols), P(Symbols), Ex(DB, allRelations()) {
    Object = P.addClass("java.lang.Object", TypeKind::Class,
                        TypeId::invalid());
    P.addClass("java.lang.String", TypeKind::Class, Object);
  }

  SymbolTable Symbols;
  datalog::Database DB;
  Program P;
  Extractor Ex;
  TypeId Object;
};

TEST_F(FactsTest, SchemaDeclared) {
  EXPECT_EQ(Schema.size(), 29u);
  for (size_t I = 0; I != Schema.size(); ++I) {
    const RelationSchema &Rel = Schema[I];
    datalog::RelationId Id = DB.find(Rel.Name);
    ASSERT_TRUE(Id.isValid()) << Rel.Name;
    EXPECT_EQ(DB.relation(Id).arity(), Rel.Arity) << Rel.Name;
    EXPECT_EQ(findBaseRelation(Rel.Name), std::optional<size_t>(I));
    // Owner columns name real columns.
    EXPECT_NE(Rel.OwnerColumns, 0u) << Rel.Name;
    EXPECT_EQ(Rel.OwnerColumns >> Rel.Arity, 0u) << Rel.Name;
  }
  EXPECT_FALSE(findBaseRelation("ExercisedEntryPoint").has_value());
}

TEST_F(FactsTest, EntityEncodingRoundTrip) {
  EXPECT_EQ(Extractor::decodeMethod(Extractor::encodeMethod(MethodId(7))),
            MethodId(7));
  EXPECT_EQ(Extractor::decodeField(Extractor::encodeField(FieldId(3))),
            FieldId(3));
  EXPECT_EQ(Extractor::decodeVar(Extractor::encodeVar(VarId(12))),
            VarId(12));
  EXPECT_EQ(Extractor::decodeInvoke(Extractor::encodeInvoke(InvokeId(0))),
            InvokeId(0));
  // Malformed inputs decode to invalid, never crash.
  EXPECT_FALSE(Extractor::decodeMethod("F#3").isValid());
  EXPECT_FALSE(Extractor::decodeMethod("M#").isValid());
  EXPECT_FALSE(Extractor::decodeMethod("M#12x").isValid());
  EXPECT_FALSE(Extractor::decodeMethod("").isValid());
  EXPECT_FALSE(Extractor::decodeMethod("com.app.Foo").isValid());
}

TEST_F(FactsTest, DefaultBeanIdConvention) {
  EXPECT_EQ(defaultBeanId("com.app.UserService"), "userService");
  EXPECT_EQ(defaultBeanId("Simple"), "simple");
  EXPECT_EQ(defaultBeanId("a.b.x"), "x");
  EXPECT_EQ(defaultBeanId("a.b.URL"), "uRL"); // Spring's literal rule
}

TEST_F(FactsTest, ProgramExtraction) {
  TypeId Iface = P.addClass("app.I", TypeKind::Interface, Object, {}, true,
                            true);
  TypeId App = P.addClass("app.Controller", TypeKind::Class, Object, {Iface},
                          false, /*IsApplication=*/true);
  P.annotateType(App, "org.spring.@Controller");
  FieldId F = P.addField(App, "dep", Object);
  P.annotateField(F, "@Autowired");
  MethodBuilder M = P.addMethod(App, "handle", {Object}, Object);
  P.annotateMethod(M.id(), "@RequestMapping");
  VarId Cast = M.local("c", App);
  M.cast(Cast, App, M.param(0))
      .virtualCall(VarId::invalid(), Cast, "handle", {Object}, {M.param(0)})
      .ret(M.param(0));
  P.finalize();
  Ex.extractProgram(P);

  EXPECT_TRUE(DB.containsFact("ConcreteApplicationClass",
                              {"app.Controller"}));
  EXPECT_FALSE(DB.containsFact("ConcreteApplicationClass", {"app.I"}));
  EXPECT_TRUE(DB.containsFact("InterfaceType", {"app.I"}));
  EXPECT_TRUE(DB.containsFact("SubtypeOf", {"app.Controller", "app.I"}));
  EXPECT_TRUE(
      DB.containsFact("SubtypeOf", {"app.Controller", "java.lang.Object"}));
  EXPECT_TRUE(DB.containsFact("Class_Annotation",
                              {"app.Controller", "org.spring.@Controller"}));
  EXPECT_TRUE(DB.containsFact("Class_DefaultBeanId",
                              {"app.Controller", "controller"}));

  std::string MSym = Extractor::encodeMethod(M.id());
  EXPECT_TRUE(DB.containsFact("Method_DeclaringType",
                              {MSym, "app.Controller"}));
  EXPECT_TRUE(DB.containsFact("Method_SimpleName", {MSym, "handle"}));
  EXPECT_TRUE(DB.containsFact("ConcreteMethod", {MSym}));
  EXPECT_TRUE(DB.containsFact("Method_Annotation",
                              {MSym, "@RequestMapping"}));
  EXPECT_TRUE(DB.containsFact("CastInMethod", {MSym, "app.Controller"}));

  std::string FSym = Extractor::encodeField(F);
  EXPECT_TRUE(DB.containsFact("Field_DeclaringType",
                              {FSym, "app.Controller"}));
  EXPECT_TRUE(DB.containsFact("Field_Name", {FSym, "dep"}));
  EXPECT_TRUE(DB.containsFact("Field_Annotation", {FSym, "@Autowired"}));

  // Formal parameter facts with index and declared type.
  std::string PSym = Extractor::encodeVar(P.method(M.id()).Params[0]);
  EXPECT_TRUE(DB.containsFact("FormalParam", {"0", MSym, PSym}));
  EXPECT_TRUE(DB.containsFact("Var_Type", {PSym, "java.lang.Object"}));

  // The virtual invocation's shape.
  const Statement &Call = P.method(M.id()).Statements[1];
  std::string ISym = Extractor::encodeInvoke(Call.Invoke);
  EXPECT_TRUE(DB.containsFact("Invocation_InMethod", {ISym, MSym}));
  EXPECT_TRUE(
      DB.containsFact("VirtualInvocation_SimpleName", {ISym, "handle"}));
  EXPECT_TRUE(DB.containsFact("ActualParam", {"0", ISym, PSym}));
}

TEST_F(FactsTest, XmlExtraction) {
  xml::ParseResult R = xml::Parser::parse(
      "<beans><bean id=\"svc\" class=\"app.Svc\">"
      "<property name=\"repo\" ref=\"r\"/></bean>"
      "<note>hello</note></beans>");
  ASSERT_TRUE(R.ok());
  Ex.extractXml(*R.Doc, "beans.xml");

  EXPECT_TRUE(DB.containsFact("XMLNode", {"beans.xml", "0", "-1", "", "beans"}));
  EXPECT_TRUE(DB.containsFact("XMLNode", {"beans.xml", "1", "0", "", "bean"}));
  EXPECT_TRUE(
      DB.containsFact("XMLNodeAttr", {"beans.xml", "1", "0", "id", "svc"}));
  EXPECT_TRUE(DB.containsFact("XMLNodeAttr",
                              {"beans.xml", "1", "1", "class", "app.Svc"}));
  EXPECT_TRUE(DB.containsFact("XMLNode", {"beans.xml", "2", "1", "", "property"}));
  EXPECT_TRUE(DB.containsFact("XMLNodeText", {"beans.xml", "3", "hello"}));
}

TEST_F(FactsTest, NamespacedXmlSplitsPrefix) {
  xml::ParseResult R = xml::Parser::parse(
      "<beans><security:authentication-manager/></beans>");
  ASSERT_TRUE(R.ok());
  Ex.extractXml(*R.Doc, "sec.xml");
  EXPECT_TRUE(DB.containsFact(
      "XMLNode", {"sec.xml", "1", "0", "security", "authentication-manager"}));
}

TEST_F(FactsTest, PartialDemandFillsOnlyItsRelations) {
  // One program that fills every base relation under a full demand.
  TypeId Iface = P.addClass("app.Handler", TypeKind::Interface, Object, {},
                            true, true);
  TypeId Servlet = P.addClass("javax.servlet.GenericServlet",
                              TypeKind::Class, Object);
  TypeId App = P.addClass("app.Home", TypeKind::Class, Servlet, {Iface},
                          false, /*IsApplication=*/true);
  P.annotateType(App, "@WebServlet");
  P.annotateField(P.addField(App, "dep", Object), "@Inject");
  MethodBuilder M = P.addMethod(App, "service", {Object}, Object);
  P.annotateMethod(M.id(), "@GET");
  VarId Cast = M.local("c", App);
  VarId Out = M.local("out", Object);
  M.cast(Cast, App, M.param(0))
      .virtualCall(Out, Cast, "service", {Object}, {M.param(0)})
      .ret(Out);
  P.addMethod(App, "util", {}, TypeId::invalid(), /*IsStatic=*/true);
  P.finalize();
  xml::ParseResult Xml = xml::Parser::parse(
      "<web-app><servlet id=\"home\">app.Home</servlet></web-app>");
  ASSERT_TRUE(Xml.ok());

  // The partial run goes first, so the symbol table shows what it interned.
  datalog::Database PartialDB(Symbols);
  Demand Wanted;
  Wanted.set(size_t(BaseRel::ConcreteApplicationClass));
  Wanted.set(size_t(BaseRel::SubtypeOf));
  Extractor Partial(PartialDB, Wanted);
  EXPECT_EQ(Partial.demand(), Wanted);
  Partial.extractProgram(P);
  Partial.extractXml(*Xml.Doc, "web.xml");
  EXPECT_FALSE(Symbols.lookup(Extractor::encodeMethod(M.id())).isValid());
  EXPECT_FALSE(Symbols.lookup("web.xml").isValid());
  EXPECT_TRUE(PartialDB.containsFact(
      "SubtypeOf", {"app.Home", "javax.servlet.GenericServlet"}));

  Ex.extractProgram(P);
  Ex.extractXml(*Xml.Doc, "web.xml");
  for (const RelationSchema &Rel : Schema) {
    const datalog::Relation &Got = PartialDB.relation(PartialDB.find(Rel.Name));
    const datalog::Relation &Full = DB.relation(DB.find(Rel.Name));
    EXPECT_GT(Full.size(), 0u) << Rel.Name << " is empty in the full run";
    if (Rel.Name != "ConcreteApplicationClass" && Rel.Name != "SubtypeOf") {
      EXPECT_EQ(Got.size(), 0u) << Rel.Name;
      continue;
    }
    // A demanded relation holds exactly the full extraction's tuples.
    ASSERT_EQ(Got.size(), Full.size()) << Rel.Name;
    for (uint32_t T = 0; T != Got.size(); ++T)
      EXPECT_TRUE(std::equal(Got.tuple(T), Got.tuple(T) + Rel.Arity,
                             Full.tuple(T)))
          << Rel.Name << " tuple " << T;
  }
}

TEST_F(FactsTest, StaticMethodsMarked) {
  TypeId App =
      P.addClass("app.Util", TypeKind::Class, Object, {}, false, true);
  MethodBuilder M =
      P.addMethod(App, "helper", {}, TypeId::invalid(), /*IsStatic=*/true);
  P.finalize();
  Ex.extractProgram(P);
  EXPECT_TRUE(
      DB.containsFact("StaticMethod", {Extractor::encodeMethod(M.id())}));
}

} // namespace
