//===- Program.h - Java-like intermediate representation --------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Java-like IR consumed by the analysis. This plays the role of the
/// bytecode front end in the original JackEE: the analysis never inspects
/// real bytecode, only extracted relations over a flow-insensitive statement
/// soup (allocations, moves, field/array accesses, calls, casts) plus a
/// class hierarchy, annotations and allocation/invocation sites — exactly
/// the inputs of the paper's Figure 2.
///
/// A `Program` owns dense tables of types, fields, methods, variables,
/// allocation sites and invocation sites. Programs are constructed through
/// the builder API (`addClass`, `addMethod`, `MethodBuilder`) and must be
/// `finalize()`d before analysis, which computes subtyping bits, dispatch
/// tables and concrete-subtype lists.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_IR_PROGRAM_H
#define JACKEE_IR_PROGRAM_H

#include "support/Id.h"
#include "support/SymbolTable.h"

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace jackee {
namespace ir {

using TypeId = Id<struct TypeTag>;
using FieldId = Id<struct FieldTag>;
using MethodId = Id<struct MethodTag>;
using VarId = Id<struct VarTag>;
using AllocSiteId = Id<struct AllocSiteTag>;
using InvokeId = Id<struct InvokeTag>;

/// Kind of a type table entry.
enum class TypeKind {
  Class,
  Interface,
  Array,
  Primitive,
};

/// A class, interface, array or primitive type.
struct Type {
  Symbol Name;
  TypeKind Kind = TypeKind::Class;
  TypeId Superclass;                ///< invalid for java.lang.Object & prims
  std::vector<TypeId> Interfaces;
  TypeId ElementType;               ///< arrays only
  bool IsAbstract = false;
  /// True for application code, false for library/framework code. Drives the
  /// paper's app-only metrics (Figure 4, Table 1) and the
  /// `ConcreteApplicationClass` input relation.
  bool IsApplication = false;
  /// Tombstoned by `Program::retractClass` during an incremental update
  /// (DESIGN.md §12). The table slot stays (ids are stable) but the type no
  /// longer participates in dispatch, subtype lists or fact extraction.
  bool IsRetracted = false;
  std::vector<Symbol> Annotations;
  std::vector<FieldId> Fields;
  std::vector<MethodId> Methods;

  bool isConcreteClass() const {
    return Kind == TypeKind::Class && !IsAbstract && !IsRetracted;
  }
};

/// An instance or static field.
struct Field {
  Symbol Name;
  TypeId DeclaringType;
  TypeId ValueType;
  bool IsStatic = false;
  std::vector<Symbol> Annotations;
};

/// Flow-insensitive statement opcodes. There is no control flow: a Doop-style
/// analysis (and therefore this reproduction) is flow-, path- and
/// array-insensitive, which is precisely the property the paper's
/// sound-modulo-analysis library models exploit (Section 4).
enum class Opcode {
  Alloc,       ///< Dst = new Type            (site: AllocSite)
  StringConst, ///< Dst = "literal"           (site: AllocSite of String)
  Move,        ///< Dst = Src
  Load,        ///< Dst = Base.Field
  Store,       ///< Base.Field = Src
  StaticLoad,  ///< Dst = Type.Field
  StaticStore, ///< Type.Field = Src
  ArrayLoad,   ///< Dst = Base[*]
  ArrayStore,  ///< Base[*] = Src
  Cast,        ///< Dst = (Type) Src
  VirtualCall, ///< [Dst =] Base.Sig(Args)    (site: Invoke; dynamic dispatch)
  SpecialCall, ///< [Dst =] Base.Method(Args) (constructors, super calls)
  StaticCall,  ///< [Dst =] Method(Args)
  Return,      ///< return Src
  Throw,       ///< throw Src
};

/// One IR statement. Field validity depends on `Op`; unused ids are invalid.
struct Statement {
  Opcode Op;
  VarId Dst;
  VarId Src;
  VarId Base;
  FieldId FieldRef;
  TypeId TypeRef;           ///< Alloc / Cast target type
  AllocSiteId Site;         ///< Alloc / StringConst
  InvokeId Invoke;          ///< calls
  Symbol CalleeSignature;   ///< VirtualCall dispatch key
  MethodId DirectCallee;    ///< SpecialCall / StaticCall target
  std::vector<VarId> Args;
};

/// A method-level exception handler: any object of a subtype of
/// `CaughtType` thrown inside the method (or escaping a callee) is bound to
/// `Var` instead of propagating to callers.
struct CatchClause {
  TypeId CaughtType;
  VarId Var;
};

/// A method with its body.
struct Method {
  Symbol Name;              ///< simple name; constructors are "<init>"
  TypeId DeclaringType;
  std::vector<TypeId> ParamTypes;
  TypeId ReturnType;        ///< invalid for void
  bool IsStatic = false;
  bool IsAbstract = false;
  /// Tombstoned by `Program::retractClass`/`retractMethod` (DESIGN.md §12):
  /// excluded from dispatch, lookup and fact extraction, slot retained.
  bool IsRetracted = false;
  std::vector<Symbol> Annotations;
  Symbol SignatureKey;      ///< "name(T1,T2)" — the dynamic-dispatch key

  VarId This;               ///< invalid for static methods
  std::vector<VarId> Params;
  std::vector<Statement> Statements;
  std::vector<CatchClause> Catches;
};

/// A local variable (including `this` and formals).
struct Variable {
  Symbol Name;
  MethodId DeclaringMethod;
  TypeId DeclaredType;
};

/// How an abstract object came to exist. `Mock` and `Generated` objects are
/// created by the framework-modeling layer (paper Sections 3.3 and 3.5), not
/// by any program statement.
enum class AllocKind {
  Heap,           ///< a `new T` statement
  StringConstant, ///< a string literal (Label holds the text)
  Mock,           ///< entry-point mock object
  Generated,      ///< framework-generated object (e.g. a bean)
};

/// An allocation site — the identity of a context-insensitive abstract
/// object.
struct AllocSite {
  TypeId ObjectType;
  MethodId InMethod;   ///< invalid for Mock/Generated
  AllocKind Kind = AllocKind::Heap;
  Symbol Label;        ///< diagnostic name; string text for StringConstant
};

/// An invocation site, for call-graph metrics and getBean-style plugins.
struct InvokeSite {
  MethodId Caller;
  uint32_t StatementIndex = 0;
};

class Program;

/// Fluent builder for one method body. Obtained from `Program::addMethod`;
/// all `VarId`s must belong to this method.
class MethodBuilder {
public:
  MethodBuilder(Program &P, MethodId M) : P(P), M(M) {}

  MethodId id() const { return M; }

  /// Declares a fresh local of \p DeclaredType named \p Name.
  VarId local(std::string_view Name, TypeId DeclaredType);

  /// `this` (invalid for static methods).
  VarId thisVar() const;
  /// The \p Index-th formal parameter.
  VarId param(uint32_t Index) const;

  MethodBuilder &alloc(VarId Dst, TypeId Ty);
  MethodBuilder &stringConst(VarId Dst, std::string_view Literal);
  MethodBuilder &move(VarId Dst, VarId Src);
  MethodBuilder &load(VarId Dst, VarId Base, FieldId F);
  MethodBuilder &store(VarId Base, FieldId F, VarId Src);
  MethodBuilder &staticLoad(VarId Dst, FieldId F);
  MethodBuilder &staticStore(FieldId F, VarId Src);
  MethodBuilder &arrayLoad(VarId Dst, VarId Base);
  MethodBuilder &arrayStore(VarId Base, VarId Src);
  MethodBuilder &cast(VarId Dst, TypeId Ty, VarId Src);
  /// Virtual (dynamically dispatched) call; \p Dst may be invalid.
  MethodBuilder &virtualCall(VarId Dst, VarId Base, std::string_view Name,
                             const std::vector<TypeId> &ParamTypes,
                             const std::vector<VarId> &Args);
  /// Non-virtual instance call (constructor invocation, super call).
  MethodBuilder &specialCall(VarId Dst, VarId Base, MethodId Callee,
                             const std::vector<VarId> &Args);
  MethodBuilder &staticCall(VarId Dst, MethodId Callee,
                            const std::vector<VarId> &Args);
  MethodBuilder &ret(VarId Src);
  MethodBuilder &throwStmt(VarId Src);
  MethodBuilder &catchClause(TypeId CaughtType, VarId Var);

private:
  Statement &append(Opcode Op);

  Program &P;
  MethodId M;
};

/// The whole-program IR plus derived hierarchy information.
class Program {
public:
  explicit Program(SymbolTable &Symbols) : Symbols(Symbols) {}
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  SymbolTable &symbols() { return Symbols; }
  const SymbolTable &symbols() const { return Symbols; }

  // --- Construction -----------------------------------------------------

  /// Adds a class or interface. \p Superclass may be invalid only for the
  /// very first root type (java.lang.Object).
  TypeId addClass(std::string_view Name, TypeKind Kind, TypeId Superclass,
                  std::vector<TypeId> Interfaces = {}, bool IsAbstract = false,
                  bool IsApplication = false);
  TypeId addArrayType(TypeId Element);
  TypeId addPrimitive(std::string_view Name);

  void annotateType(TypeId T, std::string_view Annotation);
  void annotateMethod(MethodId M, std::string_view Annotation);
  void annotateField(FieldId F, std::string_view Annotation);

  FieldId addField(TypeId Declaring, std::string_view Name, TypeId ValueType,
                   bool IsStatic = false);

  /// Adds a method and returns a builder for its body. Abstract methods get
  /// no body statements. \p ReturnType may be invalid for void.
  MethodBuilder addMethod(TypeId Declaring, std::string_view Name,
                          const std::vector<TypeId> &ParamTypes,
                          TypeId ReturnType, bool IsStatic = false,
                          bool IsAbstract = false);

  /// Registers an analysis-created abstract object (mock/generated).
  AllocSiteId addSyntheticObject(TypeId ObjectType, AllocKind Kind,
                                 std::string_view Label);

  // --- Incremental updates (DESIGN.md §12) ------------------------------

  /// Tombstones the class or interface named \p Name and every method it
  /// declares, and frees the name for a later re-add (the table slot
  /// stays, so existing ids remain valid dead entries). Fails — returning
  /// a non-empty diagnostic — when no such type exists, or when a live
  /// type still subtypes it (retract subtypes first). Works on both
  /// finalized and under-construction programs (the from-scratch baseline
  /// replays retractions during populate); call `finalize()` again before
  /// analyzing.
  std::string retractClass(std::string_view Name);

  /// Why `retractClass` would refuse \p T: the diagnostic naming the first
  /// live type other than \p T that still subtypes it, skipping the types
  /// in \p AlsoRetracted (retracted before \p T in the same edit). Empty
  /// when nothing blocks the retraction.
  std::string retractBlocker(TypeId T,
                             std::span<const TypeId> AlsoRetracted = {}) const;

  /// Tombstones every live method named \p MethodName declared by class
  /// \p ClassName (all overloads). Fails with a non-empty diagnostic when
  /// the class or method is unknown. Call `finalize()` again before
  /// analyzing.
  std::string retractMethod(std::string_view ClassName,
                            std::string_view MethodName);

  /// Drops every allocation site at index >= \p Watermark. All of them
  /// must be synthetic (Mock/Generated): the update path records the
  /// site count after populate as the watermark, so everything past it
  /// was created by the framework layer during solving and is rebuilt by
  /// the re-solve.
  void truncateAllocSites(uint32_t Watermark);

  /// Computes subtyping, dispatch tables and concrete-subtype lists. Must be
  /// called after construction and before analysis; may be called again
  /// after further additions.
  void finalize();

  // --- Tables -----------------------------------------------------------

  const Type &type(TypeId T) const { return Types[T.index()]; }
  Type &type(TypeId T) { return Types[T.index()]; }
  const Field &field(FieldId F) const { return Fields[F.index()]; }
  const Method &method(MethodId M) const { return Methods[M.index()]; }
  Method &method(MethodId M) { return Methods[M.index()]; }
  const Variable &variable(VarId V) const { return Variables[V.index()]; }
  const AllocSite &allocSite(AllocSiteId S) const { return Sites[S.index()]; }
  const InvokeSite &invokeSite(InvokeId I) const {
    return Invokes[I.index()];
  }

  uint32_t typeCount() const { return static_cast<uint32_t>(Types.size()); }
  uint32_t fieldCount() const { return static_cast<uint32_t>(Fields.size()); }
  uint32_t methodCount() const {
    return static_cast<uint32_t>(Methods.size());
  }
  uint32_t variableCount() const {
    return static_cast<uint32_t>(Variables.size());
  }
  uint32_t allocSiteCount() const {
    return static_cast<uint32_t>(Sites.size());
  }
  uint32_t invokeCount() const {
    return static_cast<uint32_t>(Invokes.size());
  }

  // --- Snapshot serialization (src/snapshot/) ---------------------------

  /// Whole-table access for the snapshot serializer: the six entity tables
  /// in dense-id order. Everything else (`TypeByName`, `finalize()` state)
  /// is derived and recomputed on load, which is what keeps the on-disk
  /// format index-based and relocatable.
  const std::vector<Type> &typeTable() const { return Types; }
  const std::vector<Field> &fieldTable() const { return Fields; }
  const std::vector<Method> &methodTable() const { return Methods; }
  const std::vector<Variable> &variableTable() const { return Variables; }
  const std::vector<AllocSite> &allocSiteTable() const { return Sites; }
  const std::vector<InvokeSite> &invokeTable() const { return Invokes; }

  /// True after `finalize()` (and false again after `clearDerived()`).
  bool isFinalized() const { return Finalized; }

  /// Drops everything `finalize()` computed, restoring the exact
  /// pre-finalize state — `finalize()` writes only the derived members and
  /// interns no symbols, so a program finalized for base-fact extraction
  /// serializes identically to one that was never finalized.
  void clearDerived();

  /// Snapshot restore: wholesale-replaces the entity tables of an empty,
  /// unfinalized program and rebuilds the name lookup (skipping retracted
  /// types, whose names `retractClass` freed). The bound symbol table must
  /// already contain every symbol the tables reference.
  void restoreTables(std::vector<Type> NewTypes, std::vector<Field> NewFields,
                     std::vector<Method> NewMethods,
                     std::vector<Variable> NewVariables,
                     std::vector<AllocSite> NewSites,
                     std::vector<InvokeSite> NewInvokes);

  // --- Queries ----------------------------------------------------------

  /// \returns the type named \p Name, or invalid.
  TypeId findType(std::string_view Name) const;
  /// \returns the method of \p T (not inherited) with \p Name / \p
  /// ParamTypes, or invalid.
  MethodId findMethod(TypeId T, std::string_view Name,
                      const std::vector<TypeId> &ParamTypes) const;
  /// \returns the field declared in \p T named \p Name, or invalid.
  FieldId findField(TypeId T, std::string_view Name) const;

  /// Subtyping (reflexive); requires `finalize()`.
  bool isSubtype(TypeId Sub, TypeId Super) const;

  /// Virtual dispatch: resolves \p Signature on dynamic type \p Receiver by
  /// walking the superclass chain; requires `finalize()`. \returns invalid
  /// if no concrete implementation exists.
  MethodId resolveVirtual(TypeId Receiver, Symbol Signature) const;

  /// All non-abstract classes that are subtypes of \p T (including \p T
  /// itself if concrete); requires `finalize()`.
  const std::vector<TypeId> &concreteSubtypes(TypeId T) const;

  /// Builds the dispatch key "name(T1,T2)" used by `resolveVirtual`.
  Symbol signatureKey(std::string_view Name,
                      const std::vector<TypeId> &ParamTypes);

  /// "com.foo.Bar.baz" — qualified method name for diagnostics and facts.
  std::string qualifiedName(MethodId M) const;

  /// True if \p M is a non-abstract method of an application class —
  /// the denominator of the paper's Figure 4 completeness metric.
  bool isAppConcreteMethod(MethodId M) const;

private:
  friend class MethodBuilder;

  SymbolTable &Symbols;
  std::vector<Type> Types;
  std::vector<Field> Fields;
  std::vector<Method> Methods;
  std::vector<Variable> Variables;
  std::vector<AllocSite> Sites;
  std::vector<InvokeSite> Invokes;

  std::unordered_map<Symbol, uint32_t> TypeByName;

  // Derived by finalize():
  bool Finalized = false;
  std::vector<std::vector<bool>> AncestorBits; // [type][ancestor]
  std::vector<std::unordered_map<Symbol, MethodId>> DispatchTables;
  std::vector<std::vector<TypeId>> ConcreteSubtypeLists;
};

} // namespace ir
} // namespace jackee

#endif // JACKEE_IR_PROGRAM_H
