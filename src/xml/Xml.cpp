//===- Xml.cpp ------------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "xml/Xml.h"

#include <cassert>
#include <cctype>

using namespace jackee;
using namespace jackee::xml;

const std::string *Element::findAttribute(std::string_view AttrName) const {
  for (const Attribute &Attr : Attributes)
    if (Attr.Name == AttrName)
      return &Attr.Value;
  return nullptr;
}

namespace {

/// Cursor-based scanner over the input text.
class Scanner {
public:
  explicit Scanner(std::string_view Text) : Text(Text) {}

  bool atEnd() const { return Pos >= Text.size(); }
  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }
  char peekAt(size_t Offset) const {
    return Pos + Offset < Text.size() ? Text[Pos + Offset] : '\0';
  }
  char advance() { return Text[Pos++]; }
  size_t position() const { return Pos; }

  bool startsWith(std::string_view Prefix) const {
    return Text.substr(Pos, Prefix.size()) == Prefix;
  }

  void skip(size_t Count) { Pos += Count; }

  void skipWhitespace() {
    while (!atEnd() && std::isspace(static_cast<unsigned char>(peek())))
      ++Pos;
  }

  /// Advances past the first occurrence of \p Marker. \returns false if the
  /// marker never occurs.
  bool skipPast(std::string_view Marker) {
    size_t Found = Text.find(Marker, Pos);
    if (Found == std::string_view::npos)
      return false;
    Pos = Found + Marker.size();
    return true;
  }

private:
  std::string_view Text;
  size_t Pos = 0;
};

bool isNameStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_' || C == ':';
}

bool isNameChar(char C) {
  return isNameStart(C) || std::isdigit(static_cast<unsigned char>(C)) ||
         C == '-' || C == '.';
}

/// Decodes the five predefined XML entities in \p Raw; unknown entities are
/// kept verbatim (framework configs in the wild contain stray ampersands).
std::string decodeEntities(std::string_view Raw) {
  std::string Out;
  Out.reserve(Raw.size());
  for (size_t I = 0; I < Raw.size(); ++I) {
    if (Raw[I] != '&') {
      Out.push_back(Raw[I]);
      continue;
    }
    size_t Semi = Raw.find(';', I);
    if (Semi == std::string_view::npos) {
      Out.push_back('&');
      continue;
    }
    std::string_view Name = Raw.substr(I + 1, Semi - I - 1);
    if (Name == "lt")
      Out.push_back('<');
    else if (Name == "gt")
      Out.push_back('>');
    else if (Name == "amp")
      Out.push_back('&');
    else if (Name == "quot")
      Out.push_back('"');
    else if (Name == "apos")
      Out.push_back('\'');
    else {
      Out.push_back('&');
      continue;
    }
    I = Semi;
  }
  return Out;
}

std::string trim(std::string_view Raw) {
  size_t Begin = 0, End = Raw.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Raw[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(Raw[End - 1])))
    --End;
  return std::string(Raw.substr(Begin, End - Begin));
}

/// The actual parser: builds the element table while walking the text once.
class ParserImpl {
public:
  explicit ParserImpl(std::string_view Text) : Scan(Text) {}

  ParseResult run() {
    if (!skipMisc())
      return {std::nullopt, Error, ErrorOffset};
    if (Scan.atEnd())
      return fail("document has no root element");
    if (Scan.peek() != '<')
      return fail("expected '<' to open the root element");
    if (!parseElement(NoParent, 1))
      return {std::nullopt, Error, ErrorOffset};
    skipMisc();
    if (!Scan.atEnd())
      return fail("content after the root element");
    ParseResult Result;
    Result.Doc = std::move(Doc);
    return Result;
  }

private:
  /// Skips whitespace, comments, processing instructions and DOCTYPE.
  bool skipMisc() {
    while (true) {
      Scan.skipWhitespace();
      if (Scan.startsWith("<!--")) {
        if (!Scan.skipPast("-->"))
          return setError("unterminated comment");
        continue;
      }
      if (Scan.startsWith("<?")) {
        if (!Scan.skipPast("?>"))
          return setError("unterminated processing instruction");
        continue;
      }
      if (Scan.startsWith("<!DOCTYPE") || Scan.startsWith("<!doctype")) {
        if (!Scan.skipPast(">"))
          return setError("unterminated DOCTYPE");
        continue;
      }
      return true;
    }
  }

  bool parseName(std::string &Out) {
    if (!isNameStart(Scan.peek()))
      return setError("expected a name");
    Out.clear();
    while (isNameChar(Scan.peek()))
      Out.push_back(Scan.advance());
    return true;
  }

  bool parseAttribute(Element &Elem) {
    Attribute Attr;
    if (!parseName(Attr.Name))
      return false;
    Scan.skipWhitespace();
    if (Scan.peek() != '=')
      return setError("expected '=' after attribute name");
    Scan.advance();
    Scan.skipWhitespace();
    char Quote = Scan.peek();
    if (Quote != '"' && Quote != '\'')
      return setError("expected a quoted attribute value");
    Scan.advance();
    std::string Raw;
    while (!Scan.atEnd() && Scan.peek() != Quote)
      Raw.push_back(Scan.advance());
    if (Scan.atEnd())
      return setError("unterminated attribute value");
    Scan.advance(); // closing quote
    Attr.Value = decodeEntities(Raw);
    Elem.Attributes.push_back(std::move(Attr));
    return true;
  }

  /// Parses one element (recursively including children). \p Parent is the
  /// node id of the enclosing element or \c NoParent for the root;
  /// \p Depth is the element's nesting level, 1 for the root.
  bool parseElement(uint32_t Parent, uint32_t Depth) {
    assert(Scan.peek() == '<' && "caller positions us at '<'");
    if (Depth > Parser::MaxDepth)
      return setError("elements nest deeper than " +
                      std::to_string(Parser::MaxDepth) + " levels");
    Scan.advance();

    uint32_t MyId = Doc.appendElement();
    if (Parent == NoParent)
      Doc.setRoot(MyId);
    else {
      Doc.mutableElement(Parent).Children.push_back(MyId);
      Doc.mutableElement(MyId).Parent = Parent;
    }

    std::string Name;
    if (!parseName(Name))
      return false;
    Doc.mutableElement(MyId).Name = Name;

    // Attributes until '>' or '/>'.
    while (true) {
      Scan.skipWhitespace();
      if (Scan.peek() == '/' && Scan.peekAt(1) == '>') {
        Scan.skip(2);
        return true; // self-closing
      }
      if (Scan.peek() == '>') {
        Scan.advance();
        break;
      }
      if (Scan.atEnd())
        return setError("unterminated start tag");
      if (!parseAttribute(Doc.mutableElement(MyId)))
        return false;
    }

    // Content: text, children, comments, then the matching end tag.
    std::string Text;
    while (true) {
      if (Scan.atEnd())
        return setError("missing end tag for <" + Name + ">");
      if (Scan.startsWith("<!--")) {
        if (!Scan.skipPast("-->"))
          return setError("unterminated comment");
        continue;
      }
      if (Scan.startsWith("</")) {
        Scan.skip(2);
        std::string EndName;
        if (!parseName(EndName))
          return false;
        Scan.skipWhitespace();
        if (Scan.peek() != '>')
          return setError("malformed end tag");
        Scan.advance();
        if (EndName != Name)
          return setError("mismatched end tag: expected </" + Name +
                          ">, found </" + EndName + ">");
        Doc.mutableElement(MyId).Text = trim(decodeEntities(Text));
        return true;
      }
      if (Scan.peek() == '<') {
        if (!parseElement(MyId, Depth + 1))
          return false;
        continue;
      }
      Text.push_back(Scan.advance());
    }
  }

  bool setError(std::string Message) {
    if (Error.empty()) {
      Error = std::move(Message);
      ErrorOffset = Scan.position();
    }
    return false;
  }

  ParseResult fail(std::string Message) {
    setError(std::move(Message));
    return {std::nullopt, Error, ErrorOffset};
  }

  Scanner Scan;
  Document Doc;
  std::string Error;
  size_t ErrorOffset = 0;
};

} // namespace

ParseResult Parser::parse(std::string_view Text) {
  return ParserImpl(Text).run();
}
