//===- Extractor.cpp ------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "facts/Extractor.h"

#include <charconv>
#include <unordered_set>

using namespace jackee;
using namespace jackee::facts;
using namespace jackee::ir;

std::optional<size_t> jackee::facts::findBaseRelation(std::string_view Name) {
  for (size_t I = 0; I != Schema.size(); ++I)
    if (Schema[I].Name == Name)
      return I;
  return std::nullopt;
}

void jackee::facts::declareSchema(datalog::Database &DB) {
  for (const RelationSchema &Rel : Schema)
    DB.declare(Rel.Name, Rel.Arity);
}

Extractor::Extractor(datalog::Database &DB, Demand Wanted)
    : DB(DB), Symbols(DB.symbols()), Wanted(Wanted) {
  for (size_t I = 0; I != Schema.size(); ++I)
    Ids[I] = DB.declare(Schema[I].Name, Schema[I].Arity);
}

namespace {

/// Writes "<Tag>#<Index>" into \p Buf; \returns the text.
std::string_view formatEntity(char (&Buf)[16], char Tag, uint32_t Index) {
  Buf[0] = Tag;
  Buf[1] = '#';
  char *End = std::to_chars(Buf + 2, Buf + sizeof(Buf), Index).ptr;
  return {Buf, size_t(End - Buf)};
}

} // namespace

Symbol Extractor::entitySymbol(std::vector<Symbol> &Cache, char Tag,
                               uint32_t Index) {
  if (Index >= Cache.size())
    Cache.resize(Index + 1);
  Symbol &Sym = Cache[Index];
  if (!Sym.isValid()) {
    char Buf[16];
    Sym = Symbols.intern(formatEntity(Buf, Tag, Index));
  }
  return Sym;
}

Symbol Extractor::numberSymbol(uint32_t Value) {
  if (Value >= NumberSyms.size())
    NumberSyms.resize(Value + 1);
  Symbol &Sym = NumberSyms[Value];
  if (!Sym.isValid()) {
    char Buf[16];
    Sym = Symbols.intern(
        {Buf, size_t(std::to_chars(Buf, Buf + sizeof(Buf), Value).ptr - Buf)});
  }
  return Sym;
}

void Extractor::extractProgram(const Program &P) {
  extractProgramDelta(P, ProgramWatermark{});
}

ProgramWatermark Extractor::watermarkOf(const Program &P) {
  return {P.typeCount(), P.fieldCount(), P.methodCount(),
          P.variableCount()};
}

// Every fact's columns are interned left to right (braced lists evaluate
// in order), each entity symbol on its first use. A full-demand run thus
// interns exactly the symbols, in exactly the order, that base images
// have always recorded.
void Extractor::extractProgramDelta(const Program &P,
                                    const ProgramWatermark &From) {
  auto methodSym = [&](MethodId M) {
    return entitySymbol(MethodSyms, 'M', M.index());
  };
  auto varSym = [&](VarId V) { return entitySymbol(VarSyms, 'V', V.index()); };
  auto typeName = [&](TypeId T) { return P.type(T).Name; };

  for (uint32_t TI = From.Types; TI != P.typeCount(); ++TI) {
    TypeId T(TI);
    const Type &Ty = P.type(T);
    if (Ty.IsRetracted)
      continue;
    Symbol Name = Ty.Name;

    if (Ty.Kind == TypeKind::Class && wants(BaseRel::ClassType))
      emit(BaseRel::ClassType, {Name});
    else if (Ty.Kind == TypeKind::Interface && wants(BaseRel::InterfaceType))
      emit(BaseRel::InterfaceType, {Name});
    if (Ty.IsApplication) {
      if (wants(BaseRel::ApplicationClass))
        emit(BaseRel::ApplicationClass, {Name});
      if (Ty.isConcreteClass()) {
        if (wants(BaseRel::ConcreteApplicationClass))
          emit(BaseRel::ConcreteApplicationClass, {Name});
        if (wants(BaseRel::Class_DefaultBeanId))
          emit(BaseRel::Class_DefaultBeanId,
               {Name, Symbols.intern(defaultBeanId(Symbols.text(Name)))});
      }
    }
    if (wants(BaseRel::Class_Annotation))
      for (Symbol Annotation : Ty.Annotations)
        emit(BaseRel::Class_Annotation, {Name, Annotation});

    // Subtype pairs from the finalized hierarchy (strict and reflexive).
    // Type declaration order is supertype-first, so every pair a delta
    // introduces has its *subtype* past the watermark — iterating new
    // subtypes over all supertypes covers the delta. The ancestor bit is
    // tested first: it reads one row, the retraction flag a whole record.
    if (wants(BaseRel::SubtypeOf))
      for (uint32_t SI = 0; SI != P.typeCount(); ++SI)
        if (P.isSubtype(T, TypeId(SI)) && !P.type(TypeId(SI)).IsRetracted)
          emit(BaseRel::SubtypeOf, {Name, typeName(TypeId(SI))});
  }

  for (uint32_t FI = From.Fields; FI != P.fieldCount(); ++FI) {
    const Field &Fld = P.field(FieldId(FI));
    if (P.type(Fld.DeclaringType).IsRetracted)
      continue;
    auto fieldSym = [&] { return entitySymbol(FieldSyms, 'F', FI); };
    if (wants(BaseRel::Field_DeclaringType))
      emit(BaseRel::Field_DeclaringType,
           {fieldSym(), typeName(Fld.DeclaringType)});
    if (wants(BaseRel::Field_Name))
      emit(BaseRel::Field_Name, {fieldSym(), Fld.Name});
    if (wants(BaseRel::Field_Type))
      emit(BaseRel::Field_Type, {fieldSym(), typeName(Fld.ValueType)});
    if (wants(BaseRel::Field_Annotation))
      for (Symbol Annotation : Fld.Annotations)
        emit(BaseRel::Field_Annotation, {fieldSym(), Annotation});
  }

  // Statements are the largest table; skip the walk when nothing reads it.
  const bool WantsStatements =
      wants(BaseRel::CastInMethod) || wants(BaseRel::Invocation_InMethod) ||
      wants(BaseRel::AssignReturnValue) || wants(BaseRel::ActualParam) ||
      wants(BaseRel::VirtualInvocation_SimpleName) ||
      wants(BaseRel::VirtualInvocation_Base);
  for (uint32_t MI = From.Methods; MI != P.methodCount(); ++MI) {
    MethodId M(MI);
    const Method &Meth = P.method(M);
    if (Meth.IsRetracted)
      continue;
    if (wants(BaseRel::Method_DeclaringType))
      emit(BaseRel::Method_DeclaringType,
           {methodSym(M), typeName(Meth.DeclaringType)});
    if (wants(BaseRel::Method_SimpleName))
      emit(BaseRel::Method_SimpleName, {methodSym(M), Meth.Name});
    if (wants(BaseRel::Method_Descriptor))
      emit(BaseRel::Method_Descriptor, {methodSym(M), Meth.SignatureKey});
    if (!Meth.IsAbstract && wants(BaseRel::ConcreteMethod))
      emit(BaseRel::ConcreteMethod, {methodSym(M)});
    if (Meth.IsStatic && wants(BaseRel::StaticMethod))
      emit(BaseRel::StaticMethod, {methodSym(M)});
    if (wants(BaseRel::Method_Annotation))
      for (Symbol Annotation : Meth.Annotations)
        emit(BaseRel::Method_Annotation, {methodSym(M), Annotation});
    if (wants(BaseRel::FormalParam))
      for (uint32_t I = 0; I != Meth.Params.size(); ++I)
        emit(BaseRel::FormalParam,
             {numberSymbol(I), methodSym(M), varSym(Meth.Params[I])});
    if (!WantsStatements)
      continue;

    for (const Statement &S : Meth.Statements) {
      if (S.Op == Opcode::Cast && wants(BaseRel::CastInMethod))
        emit(BaseRel::CastInMethod, {methodSym(M), typeName(S.TypeRef)});
      if (S.Op != Opcode::VirtualCall && S.Op != Opcode::SpecialCall &&
          S.Op != Opcode::StaticCall)
        continue;
      auto invokeSym = [&] {
        return entitySymbol(InvokeSyms, 'I', S.Invoke.index());
      };
      if (wants(BaseRel::Invocation_InMethod))
        emit(BaseRel::Invocation_InMethod, {invokeSym(), methodSym(M)});
      if (S.Dst.isValid() && wants(BaseRel::AssignReturnValue))
        emit(BaseRel::AssignReturnValue, {invokeSym(), varSym(S.Dst)});
      if (wants(BaseRel::ActualParam))
        for (uint32_t I = 0; I != S.Args.size(); ++I)
          if (S.Args[I].isValid())
            emit(BaseRel::ActualParam,
                 {numberSymbol(I), invokeSym(), varSym(S.Args[I])});
      if (S.Op != Opcode::VirtualCall)
        continue;
      if (wants(BaseRel::VirtualInvocation_SimpleName)) {
        std::string_view Sig = Symbols.text(S.CalleeSignature);
        emit(BaseRel::VirtualInvocation_SimpleName,
             {invokeSym(), Symbols.intern(Sig.substr(0, Sig.find('(')))});
      }
      if (wants(BaseRel::VirtualInvocation_Base))
        emit(BaseRel::VirtualInvocation_Base, {invokeSym(), varSym(S.Base)});
    }
  }

  for (uint32_t VI = From.Vars; VI != P.variableCount(); ++VI) {
    VarId V(VI);
    const Variable &Var = P.variable(V);
    if (P.method(Var.DeclaringMethod).IsRetracted)
      continue;
    if (wants(BaseRel::Var_Type))
      emit(BaseRel::Var_Type, {varSym(V), typeName(Var.DeclaredType)});
    if (wants(BaseRel::Var_DeclaringMethod))
      emit(BaseRel::Var_DeclaringMethod,
           {varSym(V), methodSym(Var.DeclaringMethod)});
  }
}

void Extractor::extractXml(const xml::Document &Doc,
                           std::string_view FileName) {
  if (!wants(BaseRel::XMLNode) && !wants(BaseRel::XMLNodeAttr) &&
      !wants(BaseRel::XMLNodeText))
    return;
  Symbol FileSym;
  auto file = [&] {
    if (!FileSym.isValid())
      FileSym = Symbols.intern(FileName);
    return FileSym;
  };
  for (uint32_t Id = 0; Id != Doc.size(); ++Id) {
    const xml::Element &E = Doc.element(Id);
    if (wants(BaseRel::XMLNode)) {
      // Split "ns:name" into namespace prefix and local name.
      std::string_view Name = E.Name, Ns, Local = Name;
      if (size_t Colon = Name.find(':'); Colon != std::string_view::npos) {
        Ns = Name.substr(0, Colon);
        Local = Name.substr(Colon + 1);
      }
      emit(BaseRel::XMLNode,
           {file(), numberSymbol(Id),
            E.Parent == xml::NoParent ? Symbols.intern("-1")
                                      : numberSymbol(E.Parent),
            Symbols.intern(Ns), Symbols.intern(Local)});
    }
    if (wants(BaseRel::XMLNodeAttr))
      for (uint32_t AI = 0; AI != E.Attributes.size(); ++AI)
        emit(BaseRel::XMLNodeAttr,
             {file(), numberSymbol(Id), numberSymbol(AI),
              Symbols.intern(E.Attributes[AI].Name),
              Symbols.intern(E.Attributes[AI].Value)});
    if (!E.Text.empty() && wants(BaseRel::XMLNodeText))
      emit(BaseRel::XMLNodeText,
           {file(), numberSymbol(Id), Symbols.intern(E.Text)});
  }
}

//===----------------------------------------------------------------------===//
// Incremental retraction (DESIGN.md §12)
//===----------------------------------------------------------------------===//

namespace {

/// Raw symbol values of the entity ids whose facts are being retracted.
/// Entities that were never extracted (their encoded id was never
/// interned) simply contribute nothing.
struct SymSet {
  std::unordered_set<uint32_t> Values;

  void add(Symbol S) {
    if (S.isValid())
      Values.insert(S.rawValue());
  }
  void addEntity(const SymbolTable &Symbols, char Tag, uint32_t Index) {
    char Buf[16];
    add(Symbols.lookup(formatEntity(Buf, Tag, Index)));
  }
  bool contains(Symbol S) const { return Values.count(S.rawValue()) != 0; }
};

/// One set of dead owners per `Owner` kind.
using OwnerSets = std::array<SymSet, size_t(Owner::ConfigFile) + 1>;

/// Tombstones every live tuple of a demanded relation whose owner column
/// names an entity of \p Dead (a tuple matching several owner columns is
/// retracted once). \returns the tombstoned (relation index, tuple index)
/// pairs.
std::vector<std::pair<uint32_t, uint32_t>>
retractOwned(datalog::Database &DB,
             std::span<const datalog::RelationId, Schema.size()> Ids,
             const Demand &Wanted, const OwnerSets &Dead) {
  std::vector<std::pair<uint32_t, uint32_t>> Seeds;
  for (size_t RI = 0; RI != Schema.size(); ++RI) {
    const RelationSchema &Rel = Schema[RI];
    const SymSet &Owners = Dead[size_t(Rel.OwnedBy)];
    if (!Wanted[RI] || Owners.Values.empty())
      continue;
    datalog::Relation &R = DB.relation(Ids[RI]);
    for (uint32_t I = 0, E = R.size(); I != E; ++I) {
      if (!R.isLive(I))
        continue;
      const Symbol *Tuple = R.tuple(I);
      for (uint32_t Col = 0; Col != Rel.Arity; ++Col)
        if ((Rel.OwnerColumns >> Col & 1) && Owners.contains(Tuple[Col])) {
          R.retract(I);
          Seeds.emplace_back(Ids[RI].index(), I);
          break;
        }
    }
  }
  return Seeds;
}

} // namespace

std::vector<std::pair<uint32_t, uint32_t>> Extractor::retractEntityFacts(
    const Program &P, std::span<const TypeId> RetractedTypes,
    std::span<const MethodId> RetractedMethods) {
  // Close over ownership: a retracted type owns its fields and methods, a
  // retracted method owns its variables and invocation sites.
  OwnerSets Dead;
  std::unordered_set<uint32_t> DeadMethods;
  for (MethodId M : RetractedMethods)
    DeadMethods.insert(M.index());
  for (TypeId T : RetractedTypes) {
    const Type &Ty = P.type(T);
    Dead[size_t(Owner::Type)].add(Ty.Name);
    for (FieldId F : Ty.Fields)
      Dead[size_t(Owner::Field)].addEntity(Symbols, 'F', F.index());
    for (MethodId M : Ty.Methods)
      DeadMethods.insert(M.index());
  }
  for (uint32_t MI : DeadMethods)
    Dead[size_t(Owner::Method)].addEntity(Symbols, 'M', MI);
  for (uint32_t VI = 0; VI != P.variableCount(); ++VI)
    if (DeadMethods.count(P.variable(VarId(VI)).DeclaringMethod.index()))
      Dead[size_t(Owner::Var)].addEntity(Symbols, 'V', VI);
  for (uint32_t II = 0; II != P.invokeCount(); ++II)
    if (DeadMethods.count(P.invokeSite(InvokeId(II)).Caller.index()))
      Dead[size_t(Owner::Invoke)].addEntity(Symbols, 'I', II);
  return retractOwned(DB, Ids, Wanted, Dead);
}

std::vector<std::pair<uint32_t, uint32_t>>
Extractor::retractConfigFacts(std::string_view FileName) {
  OwnerSets Dead;
  Dead[size_t(Owner::ConfigFile)].add(Symbols.lookup(FileName));
  return retractOwned(DB, Ids, Wanted, Dead);
}

//===----------------------------------------------------------------------===//
// Entity encoding
//===----------------------------------------------------------------------===//

namespace {

std::string encodeEntity(char Tag, uint32_t Index) {
  char Buf[16];
  return std::string(formatEntity(Buf, Tag, Index));
}

uint32_t decodeEntity(char Tag, std::string_view Text) {
  if (Text.size() < 3 || Text[0] != Tag || Text[1] != '#')
    return ~uint32_t(0);
  uint32_t Value = 0;
  auto [Ptr, Ec] =
      std::from_chars(Text.data() + 2, Text.data() + Text.size(), Value);
  if (Ec != std::errc() || Ptr != Text.data() + Text.size())
    return ~uint32_t(0);
  return Value;
}

} // namespace

std::string Extractor::encodeMethod(MethodId M) {
  return encodeEntity('M', M.index());
}
std::string Extractor::encodeField(FieldId F) {
  return encodeEntity('F', F.index());
}
std::string Extractor::encodeVar(VarId V) {
  return encodeEntity('V', V.index());
}
std::string Extractor::encodeInvoke(InvokeId I) {
  return encodeEntity('I', I.index());
}

MethodId Extractor::decodeMethod(std::string_view Text) {
  uint32_t Index = decodeEntity('M', Text);
  return Index == ~uint32_t(0) ? MethodId::invalid() : MethodId(Index);
}
FieldId Extractor::decodeField(std::string_view Text) {
  uint32_t Index = decodeEntity('F', Text);
  return Index == ~uint32_t(0) ? FieldId::invalid() : FieldId(Index);
}
VarId Extractor::decodeVar(std::string_view Text) {
  uint32_t Index = decodeEntity('V', Text);
  return Index == ~uint32_t(0) ? VarId::invalid() : VarId(Index);
}
InvokeId Extractor::decodeInvoke(std::string_view Text) {
  uint32_t Index = decodeEntity('I', Text);
  return Index == ~uint32_t(0) ? InvokeId::invalid() : InvokeId(Index);
}

std::string jackee::facts::defaultBeanId(std::string_view QualifiedName) {
  size_t Dot = QualifiedName.rfind('.');
  std::string Simple(Dot == std::string_view::npos
                         ? QualifiedName
                         : QualifiedName.substr(Dot + 1));
  if (!Simple.empty() && Simple[0] >= 'A' && Simple[0] <= 'Z')
    Simple[0] = static_cast<char>(Simple[0] - 'A' + 'a');
  return Simple;
}
