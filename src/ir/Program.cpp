//===- Program.cpp --------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include <algorithm>
#include <cassert>

using namespace jackee;
using namespace jackee::ir;

//===----------------------------------------------------------------------===//
// MethodBuilder
//===----------------------------------------------------------------------===//

Statement &MethodBuilder::append(Opcode Op) {
  Method &Meth = P.method(M);
  assert(!Meth.IsAbstract && "abstract methods have no body");
  Meth.Statements.emplace_back();
  Statement &S = Meth.Statements.back();
  S.Op = Op;
  return S;
}

VarId MethodBuilder::local(std::string_view Name, TypeId DeclaredType) {
  VarId V(P.variableCount());
  P.Variables.push_back({P.Symbols.intern(Name), M, DeclaredType});
  return V;
}

VarId MethodBuilder::thisVar() const { return P.method(M).This; }

VarId MethodBuilder::param(uint32_t Index) const {
  const Method &Meth = P.method(M);
  assert(Index < Meth.Params.size() && "parameter index out of range");
  return Meth.Params[Index];
}

MethodBuilder &MethodBuilder::alloc(VarId Dst, TypeId Ty) {
  AllocSiteId Site(P.allocSiteCount());
  std::string Label = P.qualifiedName(M) + "/new" +
                      std::to_string(P.method(M).Statements.size());
  P.Sites.push_back(
      {Ty, M, AllocKind::Heap, P.Symbols.intern(Label)});
  Statement &S = append(Opcode::Alloc);
  S.Dst = Dst;
  S.TypeRef = Ty;
  S.Site = Site;
  return *this;
}

MethodBuilder &MethodBuilder::stringConst(VarId Dst,
                                          std::string_view Literal) {
  TypeId StringTy = P.findType("java.lang.String");
  assert(StringTy.isValid() && "java.lang.String must exist for literals");
  AllocSiteId Site(P.allocSiteCount());
  P.Sites.push_back(
      {StringTy, M, AllocKind::StringConstant, P.Symbols.intern(Literal)});
  Statement &S = append(Opcode::StringConst);
  S.Dst = Dst;
  S.TypeRef = StringTy;
  S.Site = Site;
  return *this;
}

MethodBuilder &MethodBuilder::move(VarId Dst, VarId Src) {
  Statement &S = append(Opcode::Move);
  S.Dst = Dst;
  S.Src = Src;
  return *this;
}

MethodBuilder &MethodBuilder::load(VarId Dst, VarId Base, FieldId F) {
  assert(!P.field(F).IsStatic && "use staticLoad for static fields");
  Statement &S = append(Opcode::Load);
  S.Dst = Dst;
  S.Base = Base;
  S.FieldRef = F;
  return *this;
}

MethodBuilder &MethodBuilder::store(VarId Base, FieldId F, VarId Src) {
  assert(!P.field(F).IsStatic && "use staticStore for static fields");
  Statement &S = append(Opcode::Store);
  S.Base = Base;
  S.FieldRef = F;
  S.Src = Src;
  return *this;
}

MethodBuilder &MethodBuilder::staticLoad(VarId Dst, FieldId F) {
  assert(P.field(F).IsStatic && "staticLoad of an instance field");
  Statement &S = append(Opcode::StaticLoad);
  S.Dst = Dst;
  S.FieldRef = F;
  return *this;
}

MethodBuilder &MethodBuilder::staticStore(FieldId F, VarId Src) {
  assert(P.field(F).IsStatic && "staticStore of an instance field");
  Statement &S = append(Opcode::StaticStore);
  S.FieldRef = F;
  S.Src = Src;
  return *this;
}

MethodBuilder &MethodBuilder::arrayLoad(VarId Dst, VarId Base) {
  Statement &S = append(Opcode::ArrayLoad);
  S.Dst = Dst;
  S.Base = Base;
  return *this;
}

MethodBuilder &MethodBuilder::arrayStore(VarId Base, VarId Src) {
  Statement &S = append(Opcode::ArrayStore);
  S.Base = Base;
  S.Src = Src;
  return *this;
}

MethodBuilder &MethodBuilder::cast(VarId Dst, TypeId Ty, VarId Src) {
  Statement &S = append(Opcode::Cast);
  S.Dst = Dst;
  S.TypeRef = Ty;
  S.Src = Src;
  return *this;
}

MethodBuilder &MethodBuilder::virtualCall(VarId Dst, VarId Base,
                                          std::string_view Name,
                                          const std::vector<TypeId> &ParamTypes,
                                          const std::vector<VarId> &Args) {
  assert(Args.size() == ParamTypes.size() && "argument count mismatch");
  InvokeId Inv(P.invokeCount());
  P.Invokes.push_back(
      {M, static_cast<uint32_t>(P.method(M).Statements.size())});
  Statement &S = append(Opcode::VirtualCall);
  S.Dst = Dst;
  S.Base = Base;
  S.CalleeSignature = P.signatureKey(Name, ParamTypes);
  S.Invoke = Inv;
  S.Args = Args;
  return *this;
}

MethodBuilder &MethodBuilder::specialCall(VarId Dst, VarId Base,
                                          MethodId Callee,
                                          const std::vector<VarId> &Args) {
  assert(!P.method(Callee).IsStatic && "special call to a static method");
  InvokeId Inv(P.invokeCount());
  P.Invokes.push_back(
      {M, static_cast<uint32_t>(P.method(M).Statements.size())});
  Statement &S = append(Opcode::SpecialCall);
  S.Dst = Dst;
  S.Base = Base;
  S.DirectCallee = Callee;
  S.Invoke = Inv;
  S.Args = Args;
  return *this;
}

MethodBuilder &MethodBuilder::staticCall(VarId Dst, MethodId Callee,
                                         const std::vector<VarId> &Args) {
  assert(P.method(Callee).IsStatic && "static call to an instance method");
  InvokeId Inv(P.invokeCount());
  P.Invokes.push_back(
      {M, static_cast<uint32_t>(P.method(M).Statements.size())});
  Statement &S = append(Opcode::StaticCall);
  S.Dst = Dst;
  S.DirectCallee = Callee;
  S.Invoke = Inv;
  S.Args = Args;
  return *this;
}

MethodBuilder &MethodBuilder::ret(VarId Src) {
  Statement &S = append(Opcode::Return);
  S.Src = Src;
  return *this;
}

MethodBuilder &MethodBuilder::throwStmt(VarId Src) {
  Statement &S = append(Opcode::Throw);
  S.Src = Src;
  return *this;
}

MethodBuilder &MethodBuilder::catchClause(TypeId CaughtType, VarId Var) {
  P.method(M).Catches.push_back({CaughtType, Var});
  return *this;
}

//===----------------------------------------------------------------------===//
// Program: construction
//===----------------------------------------------------------------------===//

TypeId Program::addClass(std::string_view Name, TypeKind Kind,
                         TypeId Superclass, std::vector<TypeId> Interfaces,
                         bool IsAbstract, bool IsApplication) {
  assert((Kind == TypeKind::Class || Kind == TypeKind::Interface) &&
         "use addArrayType/addPrimitive for other kinds");
  Symbol NameSym = Symbols.intern(Name);
  assert(TypeByName.find(NameSym) == TypeByName.end() &&
         "duplicate type name");
  assert((Superclass.isValid() || Types.empty() ||
          Kind == TypeKind::Interface) &&
         "only the root class may omit a superclass");

  TypeId T(typeCount());
  Type NewType;
  NewType.Name = NameSym;
  NewType.Kind = Kind;
  NewType.Superclass = Superclass;
  NewType.Interfaces = std::move(Interfaces);
  NewType.IsAbstract = IsAbstract || Kind == TypeKind::Interface;
  NewType.IsApplication = IsApplication;
  Types.push_back(std::move(NewType));
  TypeByName.emplace(NameSym, T.index());
  Finalized = false;
  return T;
}

TypeId Program::addArrayType(TypeId Element) {
  std::string Name = std::string(Symbols.text(type(Element).Name)) + "[]";
  Symbol NameSym = Symbols.intern(Name);
  auto It = TypeByName.find(NameSym);
  if (It != TypeByName.end())
    return TypeId(It->second);

  TypeId T(typeCount());
  Type NewType;
  NewType.Name = NameSym;
  NewType.Kind = TypeKind::Array;
  NewType.Superclass = findType("java.lang.Object");
  NewType.ElementType = Element;
  Types.push_back(std::move(NewType));
  TypeByName.emplace(NameSym, T.index());
  Finalized = false;
  return T;
}

TypeId Program::addPrimitive(std::string_view Name) {
  Symbol NameSym = Symbols.intern(Name);
  auto It = TypeByName.find(NameSym);
  if (It != TypeByName.end())
    return TypeId(It->second);
  TypeId T(typeCount());
  Type NewType;
  NewType.Name = NameSym;
  NewType.Kind = TypeKind::Primitive;
  Types.push_back(std::move(NewType));
  TypeByName.emplace(NameSym, T.index());
  return T;
}

void Program::annotateType(TypeId T, std::string_view Annotation) {
  type(T).Annotations.push_back(Symbols.intern(Annotation));
}

void Program::annotateMethod(MethodId M, std::string_view Annotation) {
  method(M).Annotations.push_back(Symbols.intern(Annotation));
}

void Program::annotateField(FieldId F, std::string_view Annotation) {
  Fields[F.index()].Annotations.push_back(Symbols.intern(Annotation));
}

FieldId Program::addField(TypeId Declaring, std::string_view Name,
                          TypeId ValueType, bool IsStatic) {
  FieldId F(fieldCount());
  Fields.push_back(
      {Symbols.intern(Name), Declaring, ValueType, IsStatic, {}});
  type(Declaring).Fields.push_back(F);
  return F;
}

MethodBuilder Program::addMethod(TypeId Declaring, std::string_view Name,
                                 const std::vector<TypeId> &ParamTypes,
                                 TypeId ReturnType, bool IsStatic,
                                 bool IsAbstract) {
  MethodId M(methodCount());
  Method NewMethod;
  NewMethod.Name = Symbols.intern(Name);
  NewMethod.DeclaringType = Declaring;
  NewMethod.ParamTypes = ParamTypes;
  NewMethod.ReturnType = ReturnType;
  NewMethod.IsStatic = IsStatic;
  NewMethod.IsAbstract = IsAbstract;
  NewMethod.SignatureKey = signatureKey(Name, ParamTypes);
  Methods.push_back(std::move(NewMethod));
  type(Declaring).Methods.push_back(M);
  Finalized = false;

  MethodBuilder Builder(*this, M);
  Method &Meth = method(M);
  if (!IsStatic) {
    Meth.This = Builder.local("this", Declaring);
  }
  for (uint32_t I = 0; I != ParamTypes.size(); ++I)
    Meth.Params.push_back(
        Builder.local("p" + std::to_string(I), ParamTypes[I]));
  return Builder;
}

AllocSiteId Program::addSyntheticObject(TypeId ObjectType, AllocKind Kind,
                                        std::string_view Label) {
  assert((Kind == AllocKind::Mock || Kind == AllocKind::Generated) &&
         "synthetic objects are mocks or framework-generated");
  AllocSiteId Site(allocSiteCount());
  Sites.push_back({ObjectType, MethodId::invalid(), Kind,
                   Symbols.intern(Label)});
  return Site;
}

std::string Program::retractClass(std::string_view Name) {
  TypeId T = findType(Name);
  if (!T.isValid())
    return "retractClass: no type named '" + std::string(Name) + "'";
  if (std::string Err = retractBlocker(T); !Err.empty())
    return Err;
  Type &Ty = type(T);
  Ty.IsRetracted = true;
  for (MethodId M : Ty.Methods)
    method(M).IsRetracted = true;
  // Free the name so a later delta can re-add it as a fresh type id.
  TypeByName.erase(Ty.Name);
  Finalized = false;
  return "";
}

std::string Program::retractBlocker(
    TypeId T, std::span<const TypeId> AlsoRetracted) const {
  // A live subtype would keep dispatching into the dead class's slots;
  // require leaf-first retraction instead of silently corrupting dispatch.
  // Checked structurally (not via AncestorBits) so retraction also works on
  // a not-yet-finalized program — the from-scratch differential baseline
  // replays deltas during populate.
  auto Reaches = [&](uint32_t From, auto &&Self) -> bool {
    if (From == T.index())
      return true;
    const Type &FromTy = Types[From];
    if (FromTy.Superclass.isValid() &&
        Self(FromTy.Superclass.index(), Self))
      return true;
    for (TypeId Iface : FromTy.Interfaces)
      if (Self(Iface.index(), Self))
        return true;
    return false;
  };
  for (uint32_t I = 0; I != typeCount(); ++I) {
    if (I == T.index() || Types[I].IsRetracted ||
        std::find(AlsoRetracted.begin(), AlsoRetracted.end(), TypeId(I)) !=
            AlsoRetracted.end())
      continue;
    if (Reaches(I, Reaches))
      return "retractClass: live type '" +
             std::string(Symbols.text(Types[I].Name)) + "' still subtypes '" +
             std::string(Symbols.text(Types[T.index()].Name)) + "'";
  }
  return "";
}

std::string Program::retractMethod(std::string_view ClassName,
                                   std::string_view MethodName) {
  TypeId T = findType(ClassName);
  if (!T.isValid())
    return "retractMethod: no type named '" + std::string(ClassName) + "'";
  Symbol NameSym = Symbols.lookup(MethodName);
  bool Any = false;
  if (NameSym.isValid())
    for (MethodId M : type(T).Methods) {
      Method &Meth = method(M);
      if (Meth.Name == NameSym && !Meth.IsRetracted) {
        Meth.IsRetracted = true;
        Any = true;
      }
    }
  if (!Any)
    return "retractMethod: no live method '" + std::string(MethodName) +
           "' on '" + std::string(ClassName) + "'";
  Finalized = false;
  return "";
}

void Program::truncateAllocSites(uint32_t Watermark) {
  assert(Watermark <= allocSiteCount() && "watermark past the site table");
#ifndef NDEBUG
  for (uint32_t I = Watermark; I != allocSiteCount(); ++I)
    assert((Sites[I].Kind == AllocKind::Mock ||
            Sites[I].Kind == AllocKind::Generated) &&
           "truncating a program-statement allocation site");
#endif
  Sites.resize(Watermark);
}

//===----------------------------------------------------------------------===//
// Program: finalize + queries
//===----------------------------------------------------------------------===//

void Program::finalize() {
  uint32_t N = typeCount();
  AncestorBits.assign(N, {});
  DispatchTables.assign(N, {});
  ConcreteSubtypeLists.assign(N, {});

  // Ancestor bits. Types are added supertype-first (builders must declare a
  // supertype before its subtypes), so one forward pass suffices; assert it.
  for (uint32_t I = 0; I != N; ++I) {
    const Type &T = Types[I];
    std::vector<bool> &Bits = AncestorBits[I];
    Bits.assign(N, false);
    Bits[I] = true;
    auto absorb = [&](TypeId Parent) {
      assert(Parent.index() < I && "supertype declared after subtype");
      const std::vector<bool> &ParentBits = AncestorBits[Parent.index()];
      for (uint32_t B = 0; B != N; ++B)
        if (ParentBits[B])
          Bits[B] = true;
    };
    if (T.Superclass.isValid())
      absorb(T.Superclass);
    for (TypeId Iface : T.Interfaces)
      absorb(Iface);
    // Array covariance: T[] <: S[] iff T <: S. Element types may be declared
    // in any order relative to the array type, so handle arrays in a second
    // pass below.
  }
  // Array covariance pass (arrays of arrays settle in <= N rounds; in
  // practice one round, since element types precede their array types).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t I = 0; I != N; ++I) {
      const Type &T = Types[I];
      if (T.Kind != TypeKind::Array)
        continue;
      for (uint32_t J = 0; J != N; ++J) {
        const Type &Other = Types[J];
        if (Other.Kind != TypeKind::Array || I == J)
          continue;
        if (AncestorBits[T.ElementType.index()][Other.ElementType.index()] &&
            !AncestorBits[I][J]) {
          AncestorBits[I][J] = true;
          Changed = true;
        }
      }
    }
  }

  // Dispatch tables: own methods shadow inherited ones.
  for (uint32_t I = 0; I != N; ++I) {
    const Type &T = Types[I];
    auto &Table = DispatchTables[I];
    if (T.Superclass.isValid())
      Table = DispatchTables[T.Superclass.index()];
    for (MethodId M : T.Methods)
      if (!method(M).IsStatic && !method(M).IsRetracted)
        Table[method(M).SignatureKey] = M;
  }

  // Concrete subtype lists.
  for (uint32_t I = 0; I != N; ++I) {
    const Type &T = Types[I];
    if (!T.isConcreteClass())
      continue;
    for (uint32_t Anc = 0; Anc != N; ++Anc)
      if (AncestorBits[I][Anc])
        ConcreteSubtypeLists[Anc].push_back(TypeId(I));
  }

  Finalized = true;
}

void Program::clearDerived() {
  Finalized = false;
  AncestorBits = {};
  DispatchTables = {};
  ConcreteSubtypeLists = {};
}

void Program::restoreTables(std::vector<Type> NewTypes,
                            std::vector<Field> NewFields,
                            std::vector<Method> NewMethods,
                            std::vector<Variable> NewVariables,
                            std::vector<AllocSite> NewSites,
                            std::vector<InvokeSite> NewInvokes) {
  assert(Types.empty() && Fields.empty() && Methods.empty() &&
         Variables.empty() && Sites.empty() && Invokes.empty() &&
         !Finalized && "restore only into a fresh program");
  Types = std::move(NewTypes);
  Fields = std::move(NewFields);
  Methods = std::move(NewMethods);
  Variables = std::move(NewVariables);
  Sites = std::move(NewSites);
  Invokes = std::move(NewInvokes);
  TypeByName.clear();
  TypeByName.reserve(Types.size());
  for (uint32_t I = 0; I != Types.size(); ++I)
    if (!Types[I].IsRetracted)
      TypeByName.emplace(Types[I].Name, I);
}

TypeId Program::findType(std::string_view Name) const {
  Symbol Sym = Symbols.lookup(Name);
  if (!Sym.isValid())
    return TypeId::invalid();
  auto It = TypeByName.find(Sym);
  if (It == TypeByName.end())
    return TypeId::invalid();
  return TypeId(It->second);
}

MethodId Program::findMethod(TypeId T, std::string_view Name,
                             const std::vector<TypeId> &ParamTypes) const {
  Symbol NameSym = Symbols.lookup(Name);
  if (!NameSym.isValid())
    return MethodId::invalid();
  for (MethodId M : type(T).Methods) {
    const Method &Meth = method(M);
    if (Meth.Name == NameSym && Meth.ParamTypes == ParamTypes &&
        !Meth.IsRetracted)
      return M;
  }
  return MethodId::invalid();
}

FieldId Program::findField(TypeId T, std::string_view Name) const {
  Symbol NameSym = Symbols.lookup(Name);
  if (!NameSym.isValid())
    return FieldId::invalid();
  // Search the class chain: fields are inherited.
  for (TypeId Cur = T; Cur.isValid(); Cur = type(Cur).Superclass)
    for (FieldId F : type(Cur).Fields)
      if (field(F).Name == NameSym)
        return F;
  return FieldId::invalid();
}

bool Program::isSubtype(TypeId Sub, TypeId Super) const {
  assert(Finalized && "isSubtype requires finalize()");
  return AncestorBits[Sub.index()][Super.index()];
}

MethodId Program::resolveVirtual(TypeId Receiver, Symbol Signature) const {
  assert(Finalized && "resolveVirtual requires finalize()");
  const auto &Table = DispatchTables[Receiver.index()];
  auto It = Table.find(Signature);
  if (It == Table.end() || method(It->second).IsAbstract)
    return MethodId::invalid();
  return It->second;
}

const std::vector<TypeId> &Program::concreteSubtypes(TypeId T) const {
  assert(Finalized && "concreteSubtypes requires finalize()");
  return ConcreteSubtypeLists[T.index()];
}

Symbol Program::signatureKey(std::string_view Name,
                             const std::vector<TypeId> &ParamTypes) {
  std::string Key(Name);
  Key.push_back('(');
  for (uint32_t I = 0; I != ParamTypes.size(); ++I) {
    if (I)
      Key.push_back(',');
    Key += Symbols.text(type(ParamTypes[I]).Name);
  }
  Key.push_back(')');
  return Symbols.intern(Key);
}

std::string Program::qualifiedName(MethodId M) const {
  const Method &Meth = method(M);
  return std::string(Symbols.text(type(Meth.DeclaringType).Name)) + "." +
         Symbols.text(Meth.Name);
}

bool Program::isAppConcreteMethod(MethodId M) const {
  const Method &Meth = method(M);
  const Type &T = type(Meth.DeclaringType);
  return !Meth.IsAbstract && !Meth.IsRetracted && !T.IsRetracted &&
         T.IsApplication;
}
