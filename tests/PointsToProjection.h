//===- PointsToProjection.h - Solver state as context tuples ----*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Projects a solved `Solver` onto the tuples the Datalog points-to oracle
// derives (tests/pointsto_oracle_test.cpp), with every context spelled as
// its allocation-site sequence, left-padded to fixed columns: two sites for
// a method context and one for a heap context. Program ids, not solver
// ids, fill the columns, so the projection is the same whatever order the
// solver interned its values, nodes and contexts in.
//
//===----------------------------------------------------------------------===//

#ifndef JACKEE_TESTS_POINTSTOPROJECTION_H
#define JACKEE_TESTS_POINTSTOPROJECTION_H

#include "pointsto/Solver.h"
#include "support/Hashing.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace jackee {
namespace test {

/// The padding of a context column: no site.
inline constexpr uint32_t NoSite = ~uint32_t(0);

/// (var, context sites, value site, heap-context site).
using VarPointsToTuple = std::array<uint32_t, 5>;
/// (invoke, caller context sites, callee, callee context sites).
using CallEdgeTuple = std::array<uint32_t, 6>;
/// (method, context sites).
using ReachableTuple = std::array<uint32_t, 3>;

/// A solver's state as sorted, duplicate-free tuple sets.
struct PointsToProjection {
  std::vector<VarPointsToTuple> VarPointsTo;
  std::vector<CallEdgeTuple> CallGraph;
  std::vector<ReachableTuple> Reachable;
};

/// \p Sites as raw ids, left-padded with `NoSite` to \p N columns; false if
/// they do not fit.
template <size_t N>
bool padSites(const std::vector<ir::AllocSiteId> &Sites,
              std::array<uint32_t, N> &Out) {
  if (Sites.size() > N)
    return false;
  Out.fill(NoSite);
  for (size_t I = 0; I != Sites.size(); ++I)
    Out[N - Sites.size() + I] = Sites[I].rawValue();
  return true;
}

template <typename T> void sortUnique(std::vector<T> &Tuples) {
  std::sort(Tuples.begin(), Tuples.end());
  Tuples.erase(std::unique(Tuples.begin(), Tuples.end()), Tuples.end());
}

/// Projects \p S. The call graph is the one the solver's state implies:
/// each call statement of each reachable (method, context), with a
/// receiver call wired once per value of its base's set under the
/// receiver's context `suffix(heapCtx ++ [site], K)`; an abstract or
/// missing target is never entered. Contexts deeper than the columns set
/// \p Fits to false.
inline PointsToProjection projectSolver(const pointsto::Solver &S,
                                        bool &Fits) {
  using namespace ir;
  using namespace pointsto;
  const Program &P = S.program();
  const ContextTable &Ctxs = S.contexts();
  PointsToProjection Out;
  Fits = true;
  std::array<uint32_t, 2> Ctx{}, CalleeCtx{};
  std::array<uint32_t, 1> Heap{};

  std::unordered_map<uint64_t, NodeId> VarNodeOf; // packPair(var, ctx)
  for (uint32_t VI = 0; VI != P.variableCount(); ++VI)
    for (NodeId N : S.varInstances(VarId(VI))) {
      CtxId C = S.varNodeCtx(N);
      VarNodeOf.emplace(packPair(VI, C.rawValue()), N);
      Fits &= padSites(Ctxs.elements(C), Ctx);
      for (uint32_t Raw : S.pointsTo(N)) {
        Fits &= padSites(Ctxs.elements(S.valueHeapCtx(ValueId(Raw))), Heap);
        Out.VarPointsTo.push_back(
            {VI, Ctx[0], Ctx[1], S.valueSiteId(ValueId(Raw)).rawValue(),
             Heap[0]});
      }
    }

  const uint32_t K = S.config().ContextDepth;
  std::vector<AllocSiteId> Sites;
  for (uint32_t Raw : S.reachableCMethods()) {
    MethodId M = S.cmethodMethod(CMethodId(Raw));
    CtxId C = S.cmethodCtx(CMethodId(Raw));
    Fits &= padSites(Ctxs.elements(C), Ctx);
    Out.Reachable.push_back({M.rawValue(), Ctx[0], Ctx[1]});
    for (const Statement &St : P.method(M).Statements) {
      if (St.Op == Opcode::StaticCall) {
        if (!P.method(St.DirectCallee).IsAbstract)
          Out.CallGraph.push_back({St.Invoke.rawValue(), Ctx[0], Ctx[1],
                                   St.DirectCallee.rawValue(), Ctx[0],
                                   Ctx[1]});
        continue;
      }
      if (St.Op != Opcode::VirtualCall && St.Op != Opcode::SpecialCall)
        continue;
      auto Base = VarNodeOf.find(packPair(St.Base.index(), C.rawValue()));
      if (Base == VarNodeOf.end())
        continue;
      for (uint32_t VRaw : S.pointsTo(Base->second)) {
        ValueId V(VRaw);
        MethodId Callee =
            St.Op == Opcode::SpecialCall
                ? St.DirectCallee
                : P.resolveVirtual(S.valueType(V), St.CalleeSignature);
        if (!Callee.isValid() || P.method(Callee).IsAbstract)
          continue;
        Sites = Ctxs.elements(S.valueHeapCtx(V));
        Sites.push_back(S.valueSiteId(V));
        Sites.erase(Sites.begin(),
                    Sites.end() - std::min<size_t>(Sites.size(), K));
        Fits &= padSites(Sites, CalleeCtx);
        Out.CallGraph.push_back({St.Invoke.rawValue(), Ctx[0], Ctx[1],
                                 Callee.rawValue(), CalleeCtx[0],
                                 CalleeCtx[1]});
      }
    }
  }
  sortUnique(Out.VarPointsTo);
  sortUnique(Out.CallGraph);
  sortUnique(Out.Reachable);
  return Out;
}

/// FNV-1a over 64-bit words, byte by byte.
class OrderHash {
public:
  void mix(uint64_t Word) {
    for (int Byte = 0; Byte != 8; ++Byte) {
      Hash ^= (Word >> (8 * Byte)) & 0xFF;
      Hash *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return Hash; }

private:
  uint64_t Hash = 0xcbf29ce484222325ULL;
};

/// The hash of the sorted var-points-to and call-graph tuples: equal for
/// two solvers that reach the same context-sensitive results, whatever
/// order they filled their sets in.
inline uint64_t orderFreeHash(const PointsToProjection &Proj) {
  OrderHash H;
  for (const VarPointsToTuple &T : Proj.VarPointsTo)
    for (uint32_t Word : T)
      H.mix(Word);
  for (const CallEdgeTuple &T : Proj.CallGraph)
    for (uint32_t Word : T)
      H.mix(Word);
  return H.value();
}

} // namespace test
} // namespace jackee

#endif // JACKEE_TESTS_POINTSTOPROJECTION_H
