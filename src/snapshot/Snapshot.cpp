//===- Snapshot.cpp - AOT base-program store ------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "snapshot/Snapshot.h"

#include "datalog/Database.h"
#include "facts/Extractor.h"

#include <cstdio>
#include <bit>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string_view>

using namespace jackee;
using namespace jackee::snapshot;

namespace {

//===----------------------------------------------------------------------===//
// Little-endian byte streams
//===----------------------------------------------------------------------===//

// All multi-byte values are assembled byte-by-byte (never reinterpret_cast
// into the image), so reads are alignment-safe on any host and the wire
// format is little-endian everywhere.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  template <typename Tag> void id(Id<Tag> V) { u32(V.rawValue()); }
  template <typename Tag> void idVec(const std::vector<Id<Tag>> &V) {
    u32(static_cast<uint32_t>(V.size()));
    for (Id<Tag> X : V)
      u32(X.rawValue());
  }

  std::vector<uint8_t> Buf;
};

template <typename IdT> IdT idFromRaw(uint32_t Raw) {
  return Raw == ~uint32_t(0) ? IdT::invalid() : IdT(Raw);
}

// Bounds-checked cursor over an image. Any out-of-range read latches
// `Failed` and returns zeros; callers check `failed()` at section
// boundaries, so a truncated or garbage payload can never index out of the
// buffer.
class ByteReader {
public:
  explicit ByteReader(std::span<const uint8_t> Data) : Data(Data) {}

  bool failed() const { return Failed; }
  void markFailed() { Failed = true; }
  bool canRead(uint64_t N) const {
    return !Failed && N <= Data.size() - Pos;
  }

  uint8_t u8() {
    if (!canRead(1)) {
      Failed = true;
      return 0;
    }
    return Data[Pos++];
  }
  uint32_t u32() {
    if (!canRead(4)) {
      Failed = true;
      return 0;
    }
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos + I]) << (8 * I);
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    if (!canRead(8)) {
      Failed = true;
      return 0;
    }
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += 8;
    return V;
  }
  std::string_view str() {
    uint32_t N = u32();
    if (!canRead(N)) {
      Failed = true;
      return {};
    }
    auto S = std::string_view(reinterpret_cast<const char *>(Data.data() + Pos),
                              N);
    Pos += N;
    return S;
  }
  template <typename IdT> IdT id() { return idFromRaw<IdT>(u32()); }

  /// Bulk-reads \p Count little-endian u32 values into \p Dst (any
  /// trivially copyable u32-sized element type, e.g. `Id<Tag>` — whose raw
  /// representation already uses ~0 for the invalid sentinel, so a byte
  /// copy IS `idFromRaw` applied element-wise). One memcpy on
  /// little-endian hosts; the loader's hot path.
  bool u32Block(void *Dst, size_t Count) {
    if (!canRead(uint64_t(Count) * 4)) {
      Failed = true;
      return false;
    }
    // An empty destination vector may have a null data(), and memcpy to
    // null is undefined even for zero bytes.
    if (Count == 0)
      return true;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(Dst, Data.data() + Pos, Count * 4);
    } else {
      for (size_t I = 0; I != Count; ++I) {
        uint32_t V = 0;
        for (int J = 0; J != 4; ++J)
          V |= static_cast<uint32_t>(Data[Pos + I * 4 + J]) << (8 * J);
        std::memcpy(static_cast<uint8_t *>(Dst) + I * 4, &V, 4);
      }
    }
    Pos += Count * 4;
    return true;
  }

  template <typename Tag> std::vector<Id<Tag>> idVec() {
    static_assert(sizeof(Id<Tag>) == sizeof(uint32_t) &&
                  std::is_trivially_copyable_v<Id<Tag>>);
    std::vector<Id<Tag>> Out;
    uint32_t N = u32();
    if (!canRead(uint64_t(N) * 4)) {
      Failed = true;
      return Out;
    }
    Out.resize(N);
    u32Block(Out.data(), N);
    return Out;
  }

private:
  std::span<const uint8_t> Data;
  size_t Pos = 0;
  bool Failed = false;
};

// The content digest: FNV-1a folded over little-endian 64-bit words, the
// sub-8-byte tail zero-padded. One multiply per word instead of per byte —
// this runs over the whole payload on every cold start, and corruption
// detection (not cryptography) is all it has to provide.
uint64_t fnv1a64(std::span<const uint8_t> Bytes) {
  uint64_t H = 1469598103934665603ull;
  size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t W;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&W, Bytes.data() + I, 8);
    } else {
      W = 0;
      for (int J = 0; J != 8; ++J)
        W |= static_cast<uint64_t>(Bytes[I + J]) << (8 * J);
    }
    H ^= W;
    H *= 1099511628211ull;
  }
  if (I != Bytes.size()) {
    uint64_t W = 0;
    for (size_t J = I; J != Bytes.size(); ++J)
      W |= static_cast<uint64_t>(Bytes[J]) << (8 * (J - I));
    H ^= W;
    H *= 1099511628211ull;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Library entity-id blocks
//===----------------------------------------------------------------------===//

// Single source of truth for the JavaLib/FrameworkLib wire layout: the
// writer and the reader traverse the same field listing (declaration
// order), so they cannot drift apart.
template <typename LibT, typename F> void visitJavaLib(LibT &L, F &&V) {
  V(L.Object), V(L.String), V(L.StringBuilder);
  V(L.Throwable), V(L.Error), V(L.Exception), V(L.RuntimeException);
  V(L.NullPointerException), V(L.ClassCastException);
  V(L.IllegalStateException), V(L.IllegalArgumentException);
  V(L.UnsupportedOperationException);
  V(L.ObjectInit);
  V(L.Consumer), V(L.BiConsumer), V(L.Function);
  V(L.Iterable), V(L.Iterator), V(L.Collection), V(L.List), V(L.Set);
  V(L.Map), V(L.MapEntry);
  V(L.ConcurrentModificationException), V(L.NoSuchElementException);
  V(L.ArrayList), V(L.HashMap), V(L.LinkedHashMap), V(L.ConcurrentHashMap);
  V(L.HashSet), V(L.LinkedHashSet);
  V(L.ArrayListInit), V(L.HashMapInit), V(L.LinkedHashMapInit);
  V(L.ConcurrentHashMapInit);
  V(L.SoundModulo);
}

template <typename LibT, typename F> void visitFrameworkLib(LibT &L, F &&V) {
  V(L.ServletRequest), V(L.ServletResponse), V(L.HttpServletRequest);
  V(L.HttpServletResponse), V(L.GenericServlet), V(L.HttpServlet);
  V(L.Filter), V(L.FilterChain);
  V(L.CatalinaRequest), V(L.CatalinaResponse);
  V(L.DispatcherServlet), V(L.HandlerInterceptor);
  V(L.HandlerInterceptorAdapter);
  V(L.Authentication), V(L.AuthenticationToken), V(L.AuthenticationManager);
  V(L.AuthenticationProvider), V(L.ProviderManager);
  V(L.BeanFactory), V(L.ApplicationContext);
  V(L.ClassPathXmlApplicationContext);
  V(L.GetBean);
  V(L.StrutsAction), V(L.StrutsActionSupport);
  V(L.JmsMessage), V(L.JmsMessageImpl), V(L.JmsMessageListener);
}

struct LibFieldWriter {
  ByteWriter &W;
  void operator()(bool B) { W.u8(B ? 1 : 0); }
  template <typename Tag> void operator()(Id<Tag> V) { W.u32(V.rawValue()); }
};

struct LibFieldReader {
  ByteReader &R;
  void operator()(bool &B) { B = R.u8() != 0; }
  template <typename Tag> void operator()(Id<Tag> &V) {
    V = idFromRaw<Id<Tag>>(R.u32());
  }
};

//===----------------------------------------------------------------------===//
// Program tables
//===----------------------------------------------------------------------===//

void writeProgram(ByteWriter &W, const ir::Program &P) {
  const auto &Types = P.typeTable();
  W.u32(static_cast<uint32_t>(Types.size()));
  for (const ir::Type &T : Types) {
    W.id(T.Name);
    W.u8(static_cast<uint8_t>(T.Kind));
    W.id(T.Superclass);
    W.idVec(T.Interfaces);
    W.id(T.ElementType);
    W.u8((T.IsAbstract ? 1 : 0) | (T.IsApplication ? 2 : 0) |
         (T.IsRetracted ? 4 : 0));
    W.idVec(T.Annotations);
    W.idVec(T.Fields);
    W.idVec(T.Methods);
  }

  const auto &Fields = P.fieldTable();
  W.u32(static_cast<uint32_t>(Fields.size()));
  for (const ir::Field &F : Fields) {
    W.id(F.Name);
    W.id(F.DeclaringType);
    W.id(F.ValueType);
    W.u8(F.IsStatic ? 1 : 0);
    W.idVec(F.Annotations);
  }

  const auto &Methods = P.methodTable();
  W.u32(static_cast<uint32_t>(Methods.size()));
  for (const ir::Method &M : Methods) {
    W.id(M.Name);
    W.id(M.DeclaringType);
    W.idVec(M.ParamTypes);
    W.id(M.ReturnType);
    W.u8((M.IsStatic ? 1 : 0) | (M.IsAbstract ? 2 : 0) |
         (M.IsRetracted ? 4 : 0));
    W.idVec(M.Annotations);
    W.id(M.SignatureKey);
    W.id(M.This);
    W.idVec(M.Params);
    W.u32(static_cast<uint32_t>(M.Statements.size()));
    for (const ir::Statement &S : M.Statements) {
      W.u8(static_cast<uint8_t>(S.Op));
      W.id(S.Dst);
      W.id(S.Src);
      W.id(S.Base);
      W.id(S.FieldRef);
      W.id(S.TypeRef);
      W.id(S.Site);
      W.id(S.Invoke);
      W.id(S.CalleeSignature);
      W.id(S.DirectCallee);
      W.idVec(S.Args);
    }
    W.u32(static_cast<uint32_t>(M.Catches.size()));
    for (const ir::CatchClause &C : M.Catches) {
      W.id(C.CaughtType);
      W.id(C.Var);
    }
  }

  const auto &Vars = P.variableTable();
  W.u32(static_cast<uint32_t>(Vars.size()));
  for (const ir::Variable &V : Vars) {
    W.id(V.Name);
    W.id(V.DeclaringMethod);
    W.id(V.DeclaredType);
  }

  const auto &Sites = P.allocSiteTable();
  W.u32(static_cast<uint32_t>(Sites.size()));
  for (const ir::AllocSite &S : Sites) {
    W.id(S.ObjectType);
    W.id(S.InMethod);
    W.u8(static_cast<uint8_t>(S.Kind));
    W.id(S.Label);
  }

  const auto &Invokes = P.invokeTable();
  W.u32(static_cast<uint32_t>(Invokes.size()));
  for (const ir::InvokeSite &I : Invokes) {
    W.id(I.Caller);
    W.u32(I.StatementIndex);
  }
}

struct DecodedProgram {
  std::vector<ir::Type> Types;
  std::vector<ir::Field> Fields;
  std::vector<ir::Method> Methods;
  std::vector<ir::Variable> Variables;
  std::vector<ir::AllocSite> Sites;
  std::vector<ir::InvokeSite> Invokes;
};

// Reads one table's element count, refusing counts that could not possibly
// fit in the remaining bytes (every element is at least `MinBytes` wide),
// so a garbage count can never trigger a huge allocation.
uint32_t readCount(ByteReader &R, uint64_t MinBytes) {
  uint32_t N = R.u32();
  if (!R.canRead(uint64_t(N) * MinBytes)) {
    R.markFailed();
    return 0;
  }
  return N;
}

bool readProgram(ByteReader &R, DecodedProgram &P) {
  uint32_t TypeCount = readCount(R, 4);
  P.Types.reserve(TypeCount);
  for (uint32_t I = 0; I != TypeCount && !R.failed(); ++I) {
    ir::Type T;
    T.Name = R.id<Symbol>();
    T.Kind = static_cast<ir::TypeKind>(R.u8());
    T.Superclass = R.id<ir::TypeId>();
    T.Interfaces = R.idVec<ir::TypeTag>();
    T.ElementType = R.id<ir::TypeId>();
    uint8_t Flags = R.u8();
    T.IsAbstract = Flags & 1;
    T.IsApplication = Flags & 2;
    T.IsRetracted = Flags & 4;
    T.Annotations = R.idVec<SymbolTag>();
    T.Fields = R.idVec<ir::FieldTag>();
    T.Methods = R.idVec<ir::MethodTag>();
    P.Types.push_back(std::move(T));
  }

  uint32_t FieldCount = readCount(R, 4);
  P.Fields.reserve(FieldCount);
  for (uint32_t I = 0; I != FieldCount && !R.failed(); ++I) {
    ir::Field F;
    F.Name = R.id<Symbol>();
    F.DeclaringType = R.id<ir::TypeId>();
    F.ValueType = R.id<ir::TypeId>();
    F.IsStatic = R.u8() != 0;
    F.Annotations = R.idVec<SymbolTag>();
    P.Fields.push_back(std::move(F));
  }

  uint32_t MethodCount = readCount(R, 4);
  P.Methods.reserve(MethodCount);
  for (uint32_t I = 0; I != MethodCount && !R.failed(); ++I) {
    ir::Method M;
    M.Name = R.id<Symbol>();
    M.DeclaringType = R.id<ir::TypeId>();
    M.ParamTypes = R.idVec<ir::TypeTag>();
    M.ReturnType = R.id<ir::TypeId>();
    uint8_t Flags = R.u8();
    M.IsStatic = Flags & 1;
    M.IsAbstract = Flags & 2;
    M.IsRetracted = Flags & 4;
    M.Annotations = R.idVec<SymbolTag>();
    M.SignatureKey = R.id<Symbol>();
    M.This = R.id<ir::VarId>();
    M.Params = R.idVec<ir::VarTag>();
    uint32_t StmtCount = readCount(R, 1);
    M.Statements.reserve(StmtCount);
    for (uint32_t S = 0; S != StmtCount && !R.failed(); ++S) {
      ir::Statement St;
      St.Op = static_cast<ir::Opcode>(R.u8());
      St.Dst = R.id<ir::VarId>();
      St.Src = R.id<ir::VarId>();
      St.Base = R.id<ir::VarId>();
      St.FieldRef = R.id<ir::FieldId>();
      St.TypeRef = R.id<ir::TypeId>();
      St.Site = R.id<ir::AllocSiteId>();
      St.Invoke = R.id<ir::InvokeId>();
      St.CalleeSignature = R.id<Symbol>();
      St.DirectCallee = R.id<ir::MethodId>();
      St.Args = R.idVec<ir::VarTag>();
      M.Statements.push_back(std::move(St));
    }
    uint32_t CatchCount = readCount(R, 8);
    M.Catches.reserve(CatchCount);
    for (uint32_t C = 0; C != CatchCount && !R.failed(); ++C) {
      ir::CatchClause Clause;
      Clause.CaughtType = R.id<ir::TypeId>();
      Clause.Var = R.id<ir::VarId>();
      M.Catches.push_back(Clause);
    }
    P.Methods.push_back(std::move(M));
  }

  uint32_t VarCount = readCount(R, 12);
  P.Variables.reserve(VarCount);
  for (uint32_t I = 0; I != VarCount && !R.failed(); ++I) {
    ir::Variable V;
    V.Name = R.id<Symbol>();
    V.DeclaringMethod = R.id<ir::MethodId>();
    V.DeclaredType = R.id<ir::TypeId>();
    P.Variables.push_back(V);
  }

  uint32_t SiteCount = readCount(R, 13);
  P.Sites.reserve(SiteCount);
  for (uint32_t I = 0; I != SiteCount && !R.failed(); ++I) {
    ir::AllocSite S;
    S.ObjectType = R.id<ir::TypeId>();
    S.InMethod = R.id<ir::MethodId>();
    S.Kind = static_cast<ir::AllocKind>(R.u8());
    S.Label = R.id<Symbol>();
    P.Sites.push_back(S);
  }

  uint32_t InvokeCount = readCount(R, 8);
  P.Invokes.reserve(InvokeCount);
  for (uint32_t I = 0; I != InvokeCount && !R.failed(); ++I) {
    ir::InvokeSite S;
    S.Caller = R.id<ir::MethodId>();
    S.StatementIndex = R.u32();
    P.Invokes.push_back(S);
  }

  return !R.failed();
}

// Reference validation: every id a decoded table holds must be invalid or
// in range, and present where its statement or catch clause needs it. The
// digest already rules out accidental corruption; this pass rules out a
// *well-digested but inconsistent* image ever producing an out-of-bounds
// table access downstream.
template <typename Tag> bool okId(Id<Tag> V, size_t Count) {
  return !V.isValid() || V.index() < Count;
}

// `okId` accepts an invalid id, but each opcode has operands that must be
// present: exactly those the IR builders (`ir::MethodBuilder`) always set.
// The solver, the extractor and the metric pass index by them unchecked.
// An opcode byte past `Opcode::Throw` matches no case and is rejected too.
bool hasRequiredOperands(const ir::Statement &S) {
  switch (S.Op) {
  case ir::Opcode::Alloc:
  case ir::Opcode::StringConst:
    return S.Dst.isValid() && S.TypeRef.isValid() && S.Site.isValid();
  case ir::Opcode::Move:
    return S.Dst.isValid() && S.Src.isValid();
  case ir::Opcode::Load:
    return S.Dst.isValid() && S.Base.isValid() && S.FieldRef.isValid();
  case ir::Opcode::Store:
    return S.Base.isValid() && S.FieldRef.isValid() && S.Src.isValid();
  case ir::Opcode::StaticLoad:
    return S.Dst.isValid() && S.FieldRef.isValid();
  case ir::Opcode::StaticStore:
    return S.FieldRef.isValid() && S.Src.isValid();
  case ir::Opcode::ArrayLoad:
    return S.Dst.isValid() && S.Base.isValid();
  case ir::Opcode::ArrayStore:
    return S.Base.isValid() && S.Src.isValid();
  case ir::Opcode::Cast:
    return S.Dst.isValid() && S.TypeRef.isValid() && S.Src.isValid();
  case ir::Opcode::VirtualCall:
    return S.Invoke.isValid() && S.Base.isValid() &&
           S.CalleeSignature.isValid();
  case ir::Opcode::SpecialCall:
    return S.Invoke.isValid() && S.Base.isValid() && S.DirectCallee.isValid();
  case ir::Opcode::StaticCall:
    return S.Invoke.isValid() && S.DirectCallee.isValid();
  case ir::Opcode::Return:
    return true; // a void return has no operand
  case ir::Opcode::Throw:
    return S.Src.isValid();
  }
  return false;
}

bool validateProgramRefs(const DecodedProgram &P, size_t SymbolCount) {
  const size_t NT = P.Types.size(), NF = P.Fields.size(),
               NM = P.Methods.size(), NV = P.Variables.size(),
               NS = P.Sites.size(), NI = P.Invokes.size();
  auto allOk = [](const auto &Vec, auto &&Check) {
    for (const auto &X : Vec)
      if (!Check(X))
        return false;
    return true;
  };

  for (size_t I = 0; I != NT; ++I) {
    const ir::Type &T = P.Types[I];
    if (!T.Name.isValid() || T.Name.index() >= SymbolCount ||
        T.Kind > ir::TypeKind::Primitive)
      return false;
    // Supertypes precede their subtypes: `Program::finalize` builds the
    // ancestor sets in one forward pass over the type table. An array type
    // needs its element type for the covariance pass.
    auto superOk = [&](ir::TypeId X) { return X.isValid() && X.index() < I; };
    if ((T.Superclass.isValid() && !superOk(T.Superclass)) ||
        !allOk(T.Interfaces, superOk))
      return false;
    if (!okId(T.ElementType, NT) ||
        (T.Kind == ir::TypeKind::Array && !T.ElementType.isValid()))
      return false;
    auto symOk = [&](Symbol S) { return okId(S, SymbolCount); };
    if (!allOk(T.Annotations, symOk))
      return false;
    if (!allOk(T.Fields,
               [&](ir::FieldId F) { return F.isValid() && F.index() < NF; }))
      return false;
    if (!allOk(T.Methods,
               [&](ir::MethodId M) { return M.isValid() && M.index() < NM; }))
      return false;
  }
  for (const ir::Field &F : P.Fields) {
    if (!okId(F.Name, SymbolCount) || !okId(F.DeclaringType, NT) ||
        !okId(F.ValueType, NT))
      return false;
    if (!allOk(F.Annotations, [&](Symbol S) { return okId(S, SymbolCount); }))
      return false;
  }
  // The builders create every parameter variable and give every variable
  // its declaring method: the solver wires parameters and finds a
  // variable's nodes through its method unchecked.
  for (const ir::Method &M : P.Methods) {
    if (!okId(M.Name, SymbolCount) || !okId(M.DeclaringType, NT) ||
        !okId(M.ReturnType, NT) || !okId(M.SignatureKey, SymbolCount) ||
        !okId(M.This, NV))
      return false;
    if (!allOk(M.ParamTypes, [&](ir::TypeId X) { return okId(X, NT); }) ||
        !allOk(M.Annotations, [&](Symbol S) { return okId(S, SymbolCount); }) ||
        !allOk(M.Params,
               [&](ir::VarId V) { return V.isValid() && V.index() < NV; }))
      return false;
    for (const ir::Statement &S : M.Statements) {
      if (!hasRequiredOperands(S))
        return false;
      if (!okId(S.Dst, NV) || !okId(S.Src, NV) || !okId(S.Base, NV) ||
          !okId(S.FieldRef, NF) || !okId(S.TypeRef, NT) ||
          !okId(S.Site, NS) || !okId(S.Invoke, NI) ||
          !okId(S.CalleeSignature, SymbolCount) || !okId(S.DirectCallee, NM))
        return false;
      if (!allOk(S.Args, [&](ir::VarId V) { return okId(V, NV); }))
        return false;
    }
    for (const ir::CatchClause &C : M.Catches)
      if (!C.CaughtType.isValid() || !C.Var.isValid() ||
          !okId(C.CaughtType, NT) || !okId(C.Var, NV))
        return false;
  }
  for (const ir::Variable &V : P.Variables)
    if (!okId(V.Name, SymbolCount) || !V.DeclaringMethod.isValid() ||
        V.DeclaringMethod.index() >= NM || !okId(V.DeclaredType, NT))
      return false;
  for (const ir::AllocSite &S : P.Sites)
    if (!okId(S.ObjectType, NT) || !okId(S.InMethod, NM) ||
        !okId(S.Label, SymbolCount) || S.Kind > ir::AllocKind::Generated)
      return false;
  for (const ir::InvokeSite &S : P.Invokes)
    if (!okId(S.Caller, NM))
      return false;
  return true;
}

bool validateLibRefs(const BaseProgram &B) {
  const size_t NT = B.Base->typeCount(), NM = B.Base->methodCount();
  bool Ok = true;
  auto Check = [&](auto V) {
    using T = std::decay_t<decltype(V)>;
    if constexpr (std::is_same_v<T, ir::TypeId>)
      Ok = Ok && V.isValid() && V.index() < NT;
    else if constexpr (std::is_same_v<T, ir::MethodId>)
      Ok = Ok && V.isValid() && V.index() < NM;
  };
  visitJavaLib(B.Lib, Check);
  visitFrameworkLib(B.Frameworks, Check);
  return Ok;
}

//===----------------------------------------------------------------------===//
// Fact section
//===----------------------------------------------------------------------===//

void writeFacts(ByteWriter &W, const facts::BaseFactSet &Facts) {
  W.u32(static_cast<uint32_t>(Facts.Relations.size()));
  for (const facts::BaseFactSet::Rel &Rel : Facts.Relations) {
    W.str(Rel.Name);
    W.u32(Rel.Arity);
    W.u32(Rel.tupleCount());
    for (Symbol S : Rel.Tuples)
      W.u32(S.rawValue());
  }
  W.u32(Facts.Watermark.Types);
  W.u32(Facts.Watermark.Fields);
  W.u32(Facts.Watermark.Methods);
  W.u32(Facts.Watermark.Vars);
}

bool readFacts(ByteReader &R, facts::BaseFactSet &Facts) {
  uint32_t RelCount = readCount(R, 12);
  Facts.Relations.reserve(RelCount);
  for (uint32_t I = 0; I != RelCount && !R.failed(); ++I) {
    facts::BaseFactSet::Rel Rel;
    Rel.Name = std::string(R.str());
    Rel.Arity = R.u32();
    uint32_t TupleCount = R.u32();
    uint64_t Symbols = uint64_t(TupleCount) * Rel.Arity;
    if (!R.canRead(Symbols * 4))
      return false;
    Rel.Tuples.resize(Symbols);
    R.u32Block(Rel.Tuples.data(), Symbols);
    Facts.Relations.push_back(std::move(Rel));
  }
  Facts.Watermark.Types = R.u32();
  Facts.Watermark.Fields = R.u32();
  Facts.Watermark.Methods = R.u32();
  Facts.Watermark.Vars = R.u32();
  return !R.failed();
}

//===----------------------------------------------------------------------===//
// File reading
//===----------------------------------------------------------------------===//

// Reads the whole store file into \p Bytes. \returns an empty string on
// success, else why the file is unreadable.
std::string readFile(const std::string &Path, std::vector<uint8_t> &Bytes) {
  struct Closer {
    void operator()(std::FILE *F) const { std::fclose(F); }
  };
  std::unique_ptr<std::FILE, Closer> In(std::fopen(Path.c_str(), "rb"));
  if (!In)
    return "cannot open";
  std::fseek(In.get(), 0, SEEK_END);
  long End = std::ftell(In.get());
  std::fseek(In.get(), 0, SEEK_SET);
  if (End <= 0)
    return "empty file";
  Bytes.resize(static_cast<size_t>(End));
  if (std::fread(Bytes.data(), 1, Bytes.size(), In.get()) != Bytes.size())
    return "short read";
  return "";
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

BaseProgram jackee::snapshot::buildBase(javalib::CollectionModel Model) {
  BaseProgram B;
  B.Symbols = std::make_unique<SymbolTable>();
  B.Base = std::make_unique<ir::Program>(*B.Symbols);
  B.Lib = javalib::buildJavaLibrary(*B.Base, Model);
  B.Frameworks = frameworks::buildFrameworkLibrary(*B.Base, B.Lib);

  // Extract the base facts once, into a throwaway database. `finalize()`
  // writes only derived members and interns nothing, so `clearDerived()`
  // restores the exact pre-finalize program — but the *extraction* interns
  // the fact-entity symbols ("M#7", "V#42", ...), which is intentional:
  // cells built from this snapshot then intern identical symbol ids in
  // identical order to cells that ran a full extraction themselves. The
  // image holds every relation, so one image serves any cell's demand
  // set (`Application::ExtraRules` included).
  B.Base->finalize();
  datalog::Database Scratch(*B.Symbols);
  facts::Extractor Ex(Scratch, facts::allRelations());
  Ex.extractProgram(*B.Base);
  B.Facts = facts::captureBaseFacts(Scratch);
  B.Facts.Watermark = facts::Extractor::watermarkOf(*B.Base);
  B.Base->clearDerived();
  return B;
}

std::vector<uint8_t>
jackee::snapshot::serialize(const BaseProgram &B,
                            javalib::CollectionModel Model) {
  assert(B.Symbols && B.Base && "serializing an empty BaseProgram");
  assert(!B.Base->isFinalized() &&
         "finalize() state is derived; serialize unfinalized programs");

  ByteWriter Payload;
  Payload.u32(static_cast<uint32_t>(B.Symbols->size()));
  for (uint32_t I = 0; I != B.Symbols->size(); ++I)
    Payload.str(B.Symbols->text(Symbol(I)));
  writeProgram(Payload, *B.Base);
  visitJavaLib(B.Lib, LibFieldWriter{Payload});
  visitFrameworkLib(B.Frameworks, LibFieldWriter{Payload});
  writeFacts(Payload, B.Facts);

  ByteWriter Image;
  for (char C : Magic)
    Image.u8(static_cast<uint8_t>(C));
  Image.u32(FormatVersion);
  Image.u32(static_cast<uint32_t>(Model));
  Image.u64(Payload.Buf.size());
  Image.u64(fnv1a64(Payload.Buf));
  Image.u64(0); // reserved
  assert(Image.Buf.size() == HeaderBytes && "header layout drifted");
  Image.Buf.insert(Image.Buf.end(), Payload.Buf.begin(), Payload.Buf.end());
  return std::move(Image.Buf);
}

LoadResult jackee::snapshot::deserialize(std::span<const uint8_t> Image,
                                         javalib::CollectionModel Expected) {
  LoadResult Out;
  Out.Bytes = Image.size();
  auto fail = [&](std::string Why) {
    Out.Data.reset();
    Out.Warning = std::move(Why);
    return std::move(Out);
  };

  if (Image.size() < HeaderBytes)
    return fail("truncated header (" + std::to_string(Image.size()) +
                " bytes)");
  if (std::memcmp(Image.data(), Magic, sizeof(Magic)) != 0)
    return fail("bad magic");

  ByteReader Header(Image.subspan(sizeof(Magic), HeaderBytes - sizeof(Magic)));
  uint32_t Version = Header.u32();
  uint32_t Model = Header.u32();
  uint64_t PayloadSize = Header.u64();
  uint64_t Digest = Header.u64();
  if (Version != FormatVersion)
    return fail("format version " + std::to_string(Version) + " (expected " +
                std::to_string(FormatVersion) + ")");
  if (Model != static_cast<uint32_t>(Expected))
    return fail("collection model " + std::to_string(Model) + " (expected " +
                std::to_string(static_cast<uint32_t>(Expected)) + ")");
  if (PayloadSize != Image.size() - HeaderBytes)
    return fail("truncated payload (" +
                std::to_string(Image.size() - HeaderBytes) + " of " +
                std::to_string(PayloadSize) + " bytes)");
  std::span<const uint8_t> Payload = Image.subspan(HeaderBytes);
  if (fnv1a64(Payload) != Digest)
    return fail("content digest mismatch");

  // The digest matched, so the payload is whatever the writer produced;
  // the structural checks below only guard against a corrupt *writer*.
  ByteReader R(Payload);
  auto B = std::make_unique<BaseProgram>();
  B->Symbols = std::make_unique<SymbolTable>();
  uint32_t SymbolCount = readCount(R, 4);
  B->Symbols->reserve(SymbolCount);
  for (uint32_t I = 0; I != SymbolCount && !R.failed(); ++I) {
    std::string_view Text = R.str();
    if (R.failed())
      break;
    // Symbol ids are the append order, so a valid image interns each text
    // exactly once; internNew's failed insert IS the duplicate check.
    if (B->Symbols->internNew(Text).rawValue() != I)
      return fail("duplicate symbol text at id " + std::to_string(I));
  }
  if (R.failed() || B->Symbols->size() != SymbolCount)
    return fail("malformed symbol section");

  DecodedProgram Tables;
  if (!readProgram(R, Tables))
    return fail("malformed program section");
  if (!validateProgramRefs(Tables, SymbolCount))
    return fail("missing or out-of-range reference in program section");

  B->Base = std::make_unique<ir::Program>(*B->Symbols);
  B->Base->restoreTables(std::move(Tables.Types), std::move(Tables.Fields),
                         std::move(Tables.Methods),
                         std::move(Tables.Variables), std::move(Tables.Sites),
                         std::move(Tables.Invokes));

  LibFieldReader LibReader{R};
  visitJavaLib(B->Lib, LibReader);
  visitFrameworkLib(B->Frameworks, LibReader);
  if (R.failed())
    return fail("malformed library-id section");

  if (!readFacts(R, B->Facts))
    return fail("malformed fact section");

  Out.Data = std::move(B);
  if (!validateLibRefs(*Out.Data))
    return fail("out-of-range library entity id");
  if (std::string Err =
          facts::validateBaseFacts(Out.Data->Facts, SymbolCount);
      !Err.empty())
    return fail("fact section: " + Err);
  const facts::ProgramWatermark &WM = Out.Data->Facts.Watermark;
  if (WM.Types != Out.Data->Base->typeCount() ||
      WM.Fields != Out.Data->Base->fieldCount() ||
      WM.Methods != Out.Data->Base->methodCount() ||
      WM.Vars != Out.Data->Base->variableCount())
    return fail("watermark does not match program tables");
  return Out;
}

const char *jackee::snapshot::modelToken(javalib::CollectionModel Model) {
  switch (Model) {
  case javalib::CollectionModel::OriginalJdk8:
    return "original-jdk8";
  case javalib::CollectionModel::OriginalNoTreeNodes:
    return "original-no-treenodes";
  case javalib::CollectionModel::SoundModulo:
    return "sound-modulo";
  }
  return "unknown";
}

std::string jackee::snapshot::snapshotPath(const std::string &Dir,
                                           javalib::CollectionModel Model) {
  return (std::filesystem::path(Dir) /
          (std::string("base-") + modelToken(Model) + ".jks"))
      .string();
}

std::string jackee::snapshot::saveToDir(const std::string &Dir,
                                        const BaseProgram &B,
                                        javalib::CollectionModel Model,
                                        uint64_t *OutBytes) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return "cannot create directory '" + Dir + "': " + Ec.message();

  std::vector<uint8_t> Image = serialize(B, Model);
  std::string Path = snapshotPath(Dir, Model);
  std::string Tmp = Path + ".tmp";
  std::FILE *Out = std::fopen(Tmp.c_str(), "wb");
  if (!Out)
    return "cannot write '" + Tmp + "'";
  size_t Written = std::fwrite(Image.data(), 1, Image.size(), Out);
  bool CloseOk = std::fclose(Out) == 0;
  if (Written != Image.size() || !CloseOk) {
    std::filesystem::remove(Tmp, Ec);
    return "short write to '" + Tmp + "'";
  }
  std::filesystem::rename(Tmp, Path, Ec);
  if (Ec) {
    std::filesystem::remove(Tmp, Ec);
    return "cannot rename '" + Tmp + "' to '" + Path + "'";
  }
  if (OutBytes)
    *OutBytes = Image.size();
  return "";
}

LoadResult jackee::snapshot::loadFromDir(const std::string &Dir,
                                         javalib::CollectionModel Model,
                                         std::vector<uint8_t> *Image) {
  std::string Path = snapshotPath(Dir, Model);
  std::vector<uint8_t> Bytes;
  if (std::string Err = readFile(Path, Bytes); !Err.empty()) {
    LoadResult Out;
    Out.Warning = "'" + Path + "': " + Err;
    return Out;
  }
  LoadResult Out = deserialize(Bytes, Model);
  if (!Out.ok())
    Out.Warning = "'" + Path + "': " + Out.Warning;
  else if (Image)
    *Image = std::move(Bytes);
  return Out;
}
