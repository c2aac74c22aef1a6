//===- xml_test.cpp - Unit tests for the XML substrate --------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "xml/Xml.h"

#include <gtest/gtest.h>

using namespace jackee::xml;

namespace {

TEST(XmlTest, SingleEmptyElement) {
  ParseResult R = Parser::parse("<beans/>");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Doc->size(), 1u);
  EXPECT_EQ(R.Doc->element(R.Doc->root()).Name, "beans");
}

TEST(XmlTest, Attributes) {
  ParseResult R = Parser::parse(
      R"(<bean id="userService" class="com.app.UserService"/>)");
  ASSERT_TRUE(R.ok()) << R.Error;
  const Element &E = R.Doc->element(R.Doc->root());
  ASSERT_EQ(E.Attributes.size(), 2u);
  EXPECT_EQ(E.Attributes[0].Name, "id");
  EXPECT_EQ(E.Attributes[0].Value, "userService");
  ASSERT_NE(E.findAttribute("class"), nullptr);
  EXPECT_EQ(*E.findAttribute("class"), "com.app.UserService");
  EXPECT_EQ(E.findAttribute("missing"), nullptr);
}

TEST(XmlTest, SingleQuotedAttributes) {
  ParseResult R = Parser::parse("<a x='1'/>");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(*R.Doc->element(0).findAttribute("x"), "1");
}

TEST(XmlTest, NestedElementsAndParents) {
  ParseResult R = Parser::parse(
      "<beans><bean id=\"a\"><property name=\"f\" ref=\"b\"/></bean>"
      "<bean id=\"b\"/></beans>");
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Doc->size(), 4u);
  const Element &Root = R.Doc->element(R.Doc->root());
  EXPECT_EQ(Root.Name, "beans");
  ASSERT_EQ(Root.Children.size(), 2u);
  const Element &BeanA = R.Doc->element(Root.Children[0]);
  EXPECT_EQ(BeanA.Name, "bean");
  ASSERT_EQ(BeanA.Children.size(), 1u);
  const Element &Prop = R.Doc->element(BeanA.Children[0]);
  EXPECT_EQ(Prop.Name, "property");
  EXPECT_EQ(Prop.Parent, Root.Children[0]);
  EXPECT_EQ(Root.Parent, NoParent);
}

TEST(XmlTest, TextContent) {
  ParseResult R = Parser::parse(
      "<servlet><servlet-class>  com.app.MainServlet\n</servlet-class>"
      "</servlet>");
  ASSERT_TRUE(R.ok()) << R.Error;
  const Element &Cls = R.Doc->element(1);
  EXPECT_EQ(Cls.Name, "servlet-class");
  EXPECT_EQ(Cls.Text, "com.app.MainServlet");
}

TEST(XmlTest, CommentsAndProlog) {
  ParseResult R = Parser::parse(
      "<?xml version=\"1.0\"?>\n"
      "<!-- Spring configuration -->\n"
      "<beans>\n"
      "  <!-- the provider -->\n"
      "  <bean id=\"p\"/>\n"
      "</beans>");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Doc->size(), 2u);
}

TEST(XmlTest, Doctype) {
  ParseResult R = Parser::parse(
      "<!DOCTYPE web-app PUBLIC \"-//Sun//DTD\" \"web.dtd\">\n"
      "<web-app/>");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Doc->element(0).Name, "web-app");
}

TEST(XmlTest, EntityDecoding) {
  ParseResult R = Parser::parse(
      "<a name=\"x &lt;y&gt; &amp; &quot;z&quot; &apos;w&apos;\">a &lt; b</a>");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(*R.Doc->element(0).findAttribute("name"), "x <y> & \"z\" 'w'");
  EXPECT_EQ(R.Doc->element(0).Text, "a < b");
}

TEST(XmlTest, UnknownEntityKeptVerbatim) {
  ParseResult R = Parser::parse("<a v=\"&nbsp;\"/>");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(*R.Doc->element(0).findAttribute("v"), "&nbsp;");
}

TEST(XmlTest, NamespacedNames) {
  ParseResult R = Parser::parse(
      "<beans xmlns:security=\"http://s\"><security:authentication-manager/>"
      "</beans>");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Doc->element(1).Name, "security:authentication-manager");
}

TEST(XmlTest, ErrorMismatchedTag) {
  ParseResult R = Parser::parse("<a><b></a></b>");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("mismatched"), std::string::npos) << R.Error;
}

TEST(XmlTest, ErrorUnterminatedTag) {
  ParseResult R = Parser::parse("<a");
  ASSERT_FALSE(R.ok());
}

TEST(XmlTest, ErrorUnterminatedAttribute) {
  ParseResult R = Parser::parse("<a v=\"x/>");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unterminated"), std::string::npos) << R.Error;
}

TEST(XmlTest, ErrorEmptyDocument) {
  ParseResult R = Parser::parse("   \n  ");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("no root"), std::string::npos) << R.Error;
}

TEST(XmlTest, ErrorTextBeforeRoot) {
  ParseResult R = Parser::parse("beans<bean/>");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("expected '<'"), std::string::npos) << R.Error;
  EXPECT_EQ(R.ErrorOffset, 0u);
}

TEST(XmlTest, ErrorTrailingContent) {
  ParseResult R = Parser::parse("<a/><b/>");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("after the root"), std::string::npos) << R.Error;
}

/// `Depth` nested `<a>` elements.
std::string nested(uint32_t Depth) {
  std::string Text;
  for (uint32_t I = 0; I != Depth; ++I)
    Text += "<a>";
  for (uint32_t I = 0; I != Depth; ++I)
    Text += "</a>";
  return Text;
}

TEST(XmlTest, NestingUpToTheBoundParses) {
  ParseResult R = Parser::parse(nested(Parser::MaxDepth));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Doc->size(), Parser::MaxDepth);
}

TEST(XmlTest, ErrorNestingPastTheBound) {
  ParseResult R = Parser::parse(nested(Parser::MaxDepth + 1));
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("deeper than " + std::to_string(Parser::MaxDepth)),
            std::string::npos)
      << R.Error;
}

TEST(XmlTest, SpringSecuritySnippetFromPaper) {
  // The paper's Section 3.4 authentication-manager example.
  ParseResult R = Parser::parse(
      "<authentication-manager>\n"
      "  <authentication-provider ref=\"customAuthenticationProvider\" />\n"
      "</authentication-manager>");
  ASSERT_TRUE(R.ok()) << R.Error;
  const Element &Root = R.Doc->element(R.Doc->root());
  EXPECT_EQ(Root.Name, "authentication-manager");
  ASSERT_EQ(Root.Children.size(), 1u);
  const Element &Provider = R.Doc->element(Root.Children[0]);
  EXPECT_EQ(*Provider.findAttribute("ref"), "customAuthenticationProvider");
}

} // namespace
