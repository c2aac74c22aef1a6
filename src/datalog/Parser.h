//===- Parser.h - Soufflé-like rule text frontend ---------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses a Soufflé-like Datalog dialect, so JackEE's framework models can be
/// written as readable rule text exactly like the paper presents them:
///
/// \code
///   .decl Servlet(c: symbol)
///   Servlet(class) :-
///     ConcreteApplicationClass(class),
///     SubtypeOf(class, "javax.servlet.GenericServlet").
///
///   EntryPointClass(class),
///   RESTResource(class) :-                     // multiple heads
///     ConcreteApplicationClass(class),
///     (Method_Annotation(m, "a") ;             // body disjunction
///      Method_Annotation(m, "b")),
///     Method_DeclaringType(m, class),
///     !ExcludedClass(class),                   // stratified negation
///     class != "java.lang.Object".             // disequality
/// \endcode
///
/// Identifiers in term position are variables; constants are double-quoted
/// strings or integer literals; `_` is an anonymous variable. Disjunctions
/// and multi-head rules are desugared into plain rules. Comments: `//` and
/// `/* ... */`.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_DATALOG_PARSER_H
#define JACKEE_DATALOG_PARSER_H

#include "datalog/Rule.h"

#include <string>
#include <string_view>

namespace jackee {
namespace datalog {

/// Deepest nesting of parenthesized body groups accepted. The framework
/// models nest one or two levels; the bound keeps the recursive descent's
/// stack use fixed whatever the input.
inline constexpr uint32_t MaxGroupDepth = 64;

/// Most plain bodies one rule's disjunctions may expand into (the product
/// of their alternative counts). Desugaring materializes every one, so the
/// bound keeps a short rule text from demanding exponential memory.
inline constexpr size_t MaxBodyAlternatives = 4096;

/// Result of parsing a rule-text unit.
struct ParserResult {
  bool Ok = false;
  std::string Error; ///< first diagnostic, with a line number
  uint32_t RulesAdded = 0;
  uint32_t RelationsDeclared = 0;
};

/// Parses \p Text, declaring relations into \p DB and adding rules into
/// \p Rules. \p Origin tags rules for diagnostics (e.g. "spring.dl").
///
/// Relations referenced by rules must be declared (either earlier in the
/// same text or by a previous parse/`Database::declare` call) — mirrors
/// Soufflé's requirement and catches typos in framework models early.
ParserResult parseRules(Database &DB, RuleSet &Rules, std::string_view Text,
                        std::string_view Origin);

} // namespace datalog
} // namespace jackee

#endif // JACKEE_DATALOG_PARSER_H
