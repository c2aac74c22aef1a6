//===- Extractor.h - IR/XML to Datalog base relations -----------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extracts the base relations that framework models are written against —
/// the input vocabulary of the paper's Figures 1 and 2: class/method/field
/// structure, annotations, subtyping, formal/actual parameters, invocation
/// shape, and XML configuration nodes.
///
/// The schema is declared once (`JACKEE_BASE_RELATIONS`): name, arity and
/// owner columns of every base relation. Extraction is demand-driven: an
/// `Extractor` emits only the relations of its `Demand` set — for an
/// analysis cell, the relations some rule body of the cell reads
/// (DESIGN.md §3.4). A fact no rule reads cannot change a result.
///
/// Entity encoding: types are identified by their fully qualified name
/// symbol (rules match class-name constants like
/// "javax.servlet.GenericServlet"); methods, fields, variables and
/// invocation sites get opaque symbols ("M#7", "F#3", "V#42", "I#9") that
/// round-trip through `encodeX`/`decodeX` so C++ glue (the mock-object
/// policy, bean plugins) can map rule outputs back to IR entities.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_FACTS_EXTRACTOR_H
#define JACKEE_FACTS_EXTRACTOR_H

#include "datalog/Database.h"
#include "ir/Program.h"
#include "xml/Xml.h"

#include <array>
#include <bitset>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jackee {
namespace facts {

/// The entity whose retraction tombstones a base fact.
enum class Owner : uint8_t { Type, Field, Method, Var, Invoke, ConfigFile };

/// One base relation of the schema.
struct RelationSchema {
  std::string_view Name;
  uint32_t Arity;
  Owner OwnedBy;
  /// Bit `c` set: column `c` names the owner. A tuple dies with its owner
  /// when any such column names a retracted entity.
  uint32_t OwnerColumns;
};

/// Every base relation (paper Figures 1 and 2), declared once, in
/// declaration order: X(name, arity, owner, owner columns).
#define JACKEE_BASE_RELATIONS(X)                                               \
  /* Type structure. */                                                        \
  X(ClassType, 1, Type, 0b1)                                                   \
  X(InterfaceType, 1, Type, 0b1)                                               \
  X(ApplicationClass, 1, Type, 0b1)                                            \
  X(ConcreteApplicationClass, 1, Type, 0b1)                                    \
  X(SubtypeOf, 2, Type, 0b11)                                                  \
  /* Annotations (paper Figure 1 inputs). */                                   \
  X(Class_Annotation, 2, Type, 0b1)                                            \
  X(Method_Annotation, 2, Method, 0b1)                                         \
  X(Field_Annotation, 2, Field, 0b1)                                           \
  /* Methods / fields / variables (paper Figure 2). */                         \
  X(Method_DeclaringType, 2, Method, 0b1)                                      \
  X(Method_SimpleName, 2, Method, 0b1)                                         \
  X(Method_Descriptor, 2, Method, 0b1)                                         \
  X(ConcreteMethod, 1, Method, 0b1)                                            \
  X(StaticMethod, 1, Method, 0b1)                                              \
  X(Field_DeclaringType, 2, Field, 0b1)                                        \
  X(Field_Name, 2, Field, 0b1)                                                 \
  X(Field_Type, 2, Field, 0b1)                                                 \
  X(Var_Type, 2, Var, 0b1)                                                     \
  X(Var_DeclaringMethod, 2, Var, 0b1)                                          \
  X(FormalParam, 3, Method, 0b10) /* (index, method, var) */                   \
  /* Invocation shape (for getBean-style programmatic patterns). */            \
  X(ActualParam, 3, Invoke, 0b10) /* (index, invocation, var) */               \
  X(AssignReturnValue, 2, Invoke, 0b1)                                         \
  X(VirtualInvocation_SimpleName, 2, Invoke, 0b1)                              \
  X(VirtualInvocation_Base, 2, Invoke, 0b1)                                    \
  X(Invocation_InMethod, 2, Invoke, 0b1)                                       \
  /* Casts inside methods, for the mock policy's cast-based discovery. */      \
  X(CastInMethod, 2, Method, 0b1) /* (method, targetType) */                   \
  /* Bean-id convention support (Datalog has no string functions). */          \
  X(Class_DefaultBeanId, 2, Type, 0b1)                                         \
  /* XML configuration (paper Figure 1 inputs). */                             \
  X(XMLNode, 5, ConfigFile, 0b1) /* (file, node, parent, ns, name) */          \
  X(XMLNodeAttr, 5, ConfigFile, 0b1) /* (file, node, index, name, value) */    \
  X(XMLNodeText, 3, ConfigFile, 0b1) /* (file, node, text) */

/// A base relation, by its position in `Schema`.
enum class BaseRel : uint8_t {
#define JACKEE_BASE_RELATION(Name, Arity, OwnedBy, OwnerColumns) Name,
  JACKEE_BASE_RELATIONS(JACKEE_BASE_RELATION)
#undef JACKEE_BASE_RELATION
};

/// The schema table. Relation ids, snapshot fact sections and `Demand`
/// bits follow its order.
inline constexpr std::array Schema = {
#define JACKEE_BASE_RELATION(Name, Arity, OwnedBy, OwnerColumns)               \
  RelationSchema{#Name, Arity, Owner::OwnedBy, OwnerColumns},
    JACKEE_BASE_RELATIONS(JACKEE_BASE_RELATION)
#undef JACKEE_BASE_RELATION
};

/// The base relations an extractor emits, one bit per `Schema` entry.
using Demand = std::bitset<Schema.size()>;

/// The demand of a full extraction: every base relation.
inline Demand allRelations() { return Demand().set(); }

/// The `Schema` position of base relation \p Name, if it is one.
std::optional<size_t> findBaseRelation(std::string_view Name);

/// Declares every base relation into \p DB (idempotent).
void declareSchema(datalog::Database &DB);

/// Entity-table sizes at a point in time; `extractProgramDelta` re-extracts
/// only entities added past a watermark, so an incremental update inserts
/// exactly the facts a fresh extraction of the grown program would add.
struct ProgramWatermark {
  uint32_t Types = 0;
  uint32_t Fields = 0;
  uint32_t Methods = 0;
  uint32_t Vars = 0;
};

/// Fills the demanded base relations from a program and its configuration
/// files. The database must share the program's symbol table.
class Extractor {
public:
  /// Declares the schema into \p DB and resolves every relation once; only
  /// the relations in \p Wanted are ever written.
  Extractor(datalog::Database &DB, Demand Wanted);

  /// The relations this extractor emits.
  const Demand &demand() const { return Wanted; }

  /// Extracts all program facts. Requires `P.finalize()` to have run.
  /// Retracted entities (see `ir::Program::retractClass`) are skipped —
  /// the from-scratch baseline of an edited program extracts exactly what
  /// the delta path leaves live.
  void extractProgram(const ir::Program &P);

  /// The watermark capturing \p P's current entity-table sizes.
  static ProgramWatermark watermarkOf(const ir::Program &P);

  /// Extracts facts only for entities added at or past \p From (plus the
  /// subtype pairs the new types introduce). Entities never mutate after
  /// creation, so extraction from the watermark inserts exactly the facts
  /// full extraction of the grown program adds over the old one.
  void extractProgramDelta(const ir::Program &P, const ProgramWatermark &From);

  /// Tombstones every demanded base fact owned by \p RetractedTypes (their
  /// own facts, both `SubtypeOf` directions, and their fields' facts) or
  /// by a retracted method (\p RetractedMethods plus every method of a
  /// retracted type — closing over their variables and invocation sites).
  /// Mirrors exactly the facts `extractProgram` skips for retracted
  /// entities. \returns the tombstoned (relation index, tuple index)
  /// pairs — the seeds of the DRed support cone.
  std::vector<std::pair<uint32_t, uint32_t>>
  retractEntityFacts(const ir::Program &P,
                     std::span<const ir::TypeId> RetractedTypes,
                     std::span<const ir::MethodId> RetractedMethods);

  /// Tombstones every XMLNode/XMLNodeAttr/XMLNodeText fact of
  /// configuration file \p FileName. \returns the tombstoned
  /// (relation index, tuple index) pairs, as for `retractEntityFacts`.
  std::vector<std::pair<uint32_t, uint32_t>>
  retractConfigFacts(std::string_view FileName);

  /// Extracts one parsed XML configuration file as XMLNode/XMLNodeAttr/
  /// XMLNodeText facts. \p FileName becomes the file column.
  void extractXml(const xml::Document &Doc, std::string_view FileName);

  /// \name Entity encoding
  /// @{
  static std::string encodeMethod(ir::MethodId M);
  static std::string encodeField(ir::FieldId F);
  static std::string encodeVar(ir::VarId V);
  static std::string encodeInvoke(ir::InvokeId I);
  /// Decoders return the invalid id on malformed input.
  static ir::MethodId decodeMethod(std::string_view Text);
  static ir::FieldId decodeField(std::string_view Text);
  static ir::VarId decodeVar(std::string_view Text);
  static ir::InvokeId decodeInvoke(std::string_view Text);
  /// @}

private:
  bool wants(BaseRel R) const { return Wanted[size_t(R)]; }

  /// Inserts one tuple into \p R through its resolved id. Callers test
  /// `wants(R)` first, so no symbol is interned for an unread relation.
  void emit(BaseRel R, std::initializer_list<Symbol> Tuple) {
    assert(Tuple.size() == Schema[size_t(R)].Arity && "tuple arity mismatch");
    DB.relation(Ids[size_t(R)]).insert({Tuple.begin(), Tuple.size()});
  }

  /// The interned "<Tag>#<Index>" symbol of an entity, memoized in
  /// \p Cache: each entity's symbol is interned once, on first use.
  Symbol entitySymbol(std::vector<Symbol> &Cache, char Tag, uint32_t Index);
  /// The interned decimal text of \p Value (parameter and XML indexes).
  Symbol numberSymbol(uint32_t Value);

  datalog::Database &DB;
  SymbolTable &Symbols;
  Demand Wanted;
  std::array<datalog::RelationId, Schema.size()> Ids;
  std::vector<Symbol> MethodSyms, FieldSyms, VarSyms, InvokeSyms, NumberSyms;
};

/// The default-bean-id convention (Spring): simple class name with the
/// first letter lowercased, e.g. "com.app.UserService" -> "userService".
std::string defaultBeanId(std::string_view QualifiedClassName);

} // namespace facts
} // namespace jackee

#endif // JACKEE_FACTS_EXTRACTOR_H
