//===- Xml.h - Minimal XML document model and parser ------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small XML parser sufficient for enterprise framework configuration
/// files (Spring bean definitions, web.xml, Struts config): elements,
/// attributes, nesting, comments, processing instructions, the five
/// predefined entities, and text content. The parsed tree is flattened into
/// a node table whose (file, nodeId, parentId, name) shape matches the
/// `XMLNode`/`XMLNodeAttr` input relations of the paper's Figure 1.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_XML_XML_H
#define JACKEE_XML_XML_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace jackee {
namespace xml {

/// One `name="value"` attribute. \c Index records the position among the
/// element's attributes (the paper's XMLNodeAttr carries an index column).
struct Attribute {
  std::string Name;
  std::string Value;
};

/// Sentinel parent id for the document root.
inline constexpr uint32_t NoParent = ~uint32_t(0);

/// One parsed element. Elements live in the owning document's node table and
/// refer to each other by dense node ids.
struct Element {
  std::string Name;
  uint32_t Parent = NoParent;
  std::vector<Attribute> Attributes;
  std::vector<uint32_t> Children;
  /// Concatenated character data directly inside this element, entity-decoded
  /// and whitespace-trimmed. Framework configs use it for e.g.
  /// <servlet-class>com.foo.Bar</servlet-class>.
  std::string Text;

  /// \returns the value of attribute \p AttrName, or nullptr if absent.
  const std::string *findAttribute(std::string_view AttrName) const;
};

/// A parsed document: a flat element table plus the root id.
class Document {
public:
  uint32_t root() const { return Root; }
  const Element &element(uint32_t Id) const { return Elements[Id]; }
  size_t size() const { return Elements.size(); }

  /// All elements in document order (node id == vector index).
  const std::vector<Element> &elements() const { return Elements; }

  /// \name Construction interface (used by the parser only)
  /// @{
  uint32_t appendElement() {
    Elements.emplace_back();
    return static_cast<uint32_t>(Elements.size() - 1);
  }
  Element &mutableElement(uint32_t Id) { return Elements[Id]; }
  void setRoot(uint32_t Id) { Root = Id; }
  /// @}

private:
  std::vector<Element> Elements;
  uint32_t Root = 0;
};

/// Outcome of a parse: either a document or a diagnostic.
struct ParseResult {
  std::optional<Document> Doc;
  std::string Error;  ///< empty on success
  size_t ErrorOffset = 0;

  bool ok() const { return Doc.has_value(); }
};

/// Recursive-descent XML parser. Stateless; use via \c parse.
class Parser {
public:
  /// Deepest element nesting accepted (the root is level 1). Framework
  /// configs nest a handful of levels; the bound keeps the recursive
  /// descent's stack use fixed whatever the input.
  static constexpr uint32_t MaxDepth = 256;

  /// Parses \p Text into a document. On malformed input, returns a result
  /// whose \c Error describes the first problem and \c ErrorOffset locates it.
  static ParseResult parse(std::string_view Text);
};

} // namespace xml
} // namespace jackee

#endif // JACKEE_XML_XML_H
