//===- Solver.cpp ---------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "pointsto/Solver.h"

#include "observe/Metrics.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <string_view>
#include <utility>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::pointsto;

const std::vector<NodeId> Solver::NoInstances;

Solver::Solver(const Program &P, SolverConfig Config)
    : P(P), Config(Config), MethodSlotCount(P.methodCount(), FirstVarSlot),
      VarSlot(P.variableCount()), VarNodes(P.variableCount()),
      MethodReached(P.methodCount()), LastCallee(P.invokeCount()) {
  for (uint32_t V = 0, E = P.variableCount(); V != E; ++V) {
    MethodId Owner = P.variable(VarId(V)).DeclaringMethod;
    VarSlot[V] = MethodSlotCount[Owner.index()]++;
  }
}

//===----------------------------------------------------------------------===//
// Interning
//===----------------------------------------------------------------------===//

ValueId Solver::internValue(AllocSiteId Site, CtxId HeapCtx) {
  auto [Index, Inserted] =
      ValueLookup.insert(packPair(Site.rawValue(), HeapCtx.rawValue()),
                         static_cast<uint32_t>(Values.size()));
  if (Inserted)
    Values.push_back({Site, HeapCtx, CtxId::invalid()});
  return ValueId(Index);
}

NodeId Solver::newNode(NodeKind Kind, uint32_t A, uint32_t B) {
  NodeId N(nodeCount());
  Nodes.push_back({Kind, A, B});
  PointsTo.emplace_back();
  Edges.emplace_back();
  Reactions.emplace_back();
  Visited.push_back(0);
  Queued.push_back(0);
  TopTarget.push_back(0);
  IndexOf.push_back(0);
  if (Kind == NodeKind::Var)
    VarNodes[A].push_back(N);
  return N;
}

NodeId Solver::internNode(NodeKind Kind, uint32_t A, uint32_t B) {
  auto [Index, Inserted] =
      NodeLookup[static_cast<size_t>(Kind)].insert(packPair(A, B), nodeCount());
  return Inserted ? newNode(Kind, A, B) : NodeId(Index);
}

NodeId Solver::varNode(CMethodId CM, VarId Var) {
  assert(VarSlot.size() == P.variableCount() && "the program gained variables");
  MethodId Owner = P.variable(Var).DeclaringMethod;
  if (Owner != CMethods[CM.index()].M)
    // A statement naming another method's variable: the node is that
    // method's, under the same context.
    CM = internCMethod(Owner, CMethods[CM.index()].Ctx);
  const CMethod &C = CMethods[CM.index()];
  NodeId &Slot = Slots[C.FirstSlot + VarSlot[Var.index()]];
  if (!Slot.isValid())
    Slot = newNode(NodeKind::Var, Var.index(), C.Ctx.index());
  return Slot;
}
NodeId Solver::fieldNode(ValueId Base, FieldId F) {
  return internNode(NodeKind::ObjectField, Base.index(), F.index());
}
NodeId Solver::arrayNode(ValueId Base) {
  return internNode(NodeKind::ArrayContents, Base.index(), 0);
}
NodeId Solver::staticNode(FieldId F) {
  return internNode(NodeKind::StaticField, F.index(), 0);
}
NodeId Solver::throwNode(CMethodId CM) {
  NodeId &Slot = Slots[CMethods[CM.index()].FirstSlot + ThrowSlot];
  if (!Slot.isValid())
    Slot = newNode(NodeKind::MethodThrow, CM.index(), 0);
  return Slot;
}
NodeId Solver::catchNode(CMethodId CM) {
  NodeId &Slot = Slots[CMethods[CM.index()].FirstSlot + CatchSlot];
  if (!Slot.isValid())
    Slot = newNode(NodeKind::CatchDispatch, CM.index(), 0);
  return Slot;
}

CMethodId Solver::internCMethod(MethodId M, CtxId Ctx) {
  assert(MethodSlotCount.size() == P.methodCount() &&
         "the program gained methods");
  auto [Index, Inserted] =
      CMethodLookup.insert(packPair(M.rawValue(), Ctx.rawValue()),
                           static_cast<uint32_t>(CMethods.size()));
  if (Inserted) {
    CMethods.push_back({M, Ctx, static_cast<uint32_t>(Slots.size())});
    Slots.resize(Slots.size() + MethodSlotCount[M.index()]);
  }
  return CMethodId(Index);
}

CtxId Solver::receiverCtx(ValueId V) {
  CtxId &Ctx = Values[V.index()].ReceiverCtx;
  if (!Ctx.isValid())
    Ctx = Ctxs.appendAndTruncate(valueHeapCtx(V), valueSiteId(V),
                                 Config.ContextDepth);
  return Ctx;
}

//===----------------------------------------------------------------------===//
// Core propagation
//===----------------------------------------------------------------------===//

bool Solver::passesFilter(ValueId V, TypeId Filter) const {
  if (!Filter.isValid())
    return true;
  return P.isSubtype(valueType(V), Filter);
}

void Solver::enqueue(NodeId N) {
  if (!std::exchange(Queued[N.index()], 1))
    Dirty.push_back(N);
}

void Solver::propagate(NodeId N, ValueId V) {
  if (PointsTo[N.index()].insert(V.rawValue()))
    enqueue(N);
}

void Solver::addEdge(NodeId From, NodeId To, TypeId Filter) {
  // A target at or above the source's top is new. Below it, a source past
  // `ScanLimit` edges looks an unfiltered target up in its index, built on
  // the first such call, so a source whose targets only ascend never pays
  // for one; casts and smaller sources scan (EXPERIMENTS.md, "Edge
  // insertion without the scan").
  const uint32_t Src = From.index(), Dst = To.index();
  std::vector<Edge> &Out = Edges[Src];
  if (Dst >= TopTarget[Src]) {
    TopTarget[Src] = Dst + 1;
    if (IndexOf[Src] && !Filter.isValid())
      TargetIndex[IndexOf[Src] - 1].push_back(Dst); // stays sorted
  } else if (!Filter.isValid() && Out.size() > InsertOrderSet::ScanLimit) {
    if (!IndexOf[Src]) {
      std::vector<uint32_t> &Built = TargetIndex.emplace_back();
      for (const Edge &E : Out)
        if (!E.Filter.isValid())
          Built.push_back(E.Target.index());
      std::sort(Built.begin(), Built.end());
      IndexOf[Src] = static_cast<uint32_t>(TargetIndex.size());
    }
    std::vector<uint32_t> &Index = TargetIndex[IndexOf[Src] - 1];
    auto It = std::lower_bound(Index.begin(), Index.end(), Dst);
    if (It != Index.end() && *It == Dst)
      return;
    Index.insert(It, Dst);
  } else {
    for (const Edge &E : Out)
      if (E.Target == To && E.Filter == Filter)
        return;
  }
  Out.push_back({To, Filter});
  ++SolverStats.EdgesAdded;
  // Replay the source's set through the new edge: a large one whole, word
  // by word, else its visited prefix. Its next visit sends the rest.
  const InsertOrderSet &Source = PointsTo[From.index()];
  if (!Filter.isValid() && Source.size() > InsertOrderSet::ScanLimit) {
    ++SolverStats.WordUnions;
    if (PointsTo[To.index()].insertBits(Source.bits()))
      enqueue(To);
    return;
  }
  for (uint32_t I = 0, E = Visited[From.index()]; I != E; ++I)
    if (passesFilter(ValueId(Source[I]), Filter))
      propagate(To, ValueId(Source[I]));
}

void Solver::addReaction(Reaction::Kind Kind, const Statement &S,
                         CMethodId CM) {
  // Replay the base's visited prefix; its next visit fires the rest.
  NodeId N = varNode(CM, S.Base);
  const Reaction R{Kind, CM, &S};
  Reactions[N.index()].push_back(R);
  for (uint32_t I = 0, E = Visited[N.index()]; I != E; ++I)
    applyReaction(R, ValueId(PointsTo[N.index()][I]));
}

void Solver::applyReaction(const Reaction &R, ValueId V) {
  ++SolverStats.ReactionsRun;
  const Statement &S = *R.Stmt;
  switch (R.RKind) {
  case Reaction::Kind::LoadBase:
    addEdge(fieldNode(V, S.FieldRef), varNode(R.CallerCM, S.Dst));
    return;
  case Reaction::Kind::StoreBase:
    addEdge(varNode(R.CallerCM, S.Src), fieldNode(V, S.FieldRef));
    return;
  case Reaction::Kind::ArrayLoadBase:
    addEdge(arrayNode(V), varNode(R.CallerCM, S.Dst));
    return;
  case Reaction::Kind::ArrayStoreBase:
    addEdge(varNode(R.CallerCM, S.Src), arrayNode(V));
    return;
  case Reaction::Kind::VirtualCall: {
    MethodId Target = P.resolveVirtual(valueType(V), S.CalleeSignature);
    if (!Target.isValid())
      return; // no concrete implementation on this receiver type
    wireCall(S, R.CallerCM, Target, receiverCtx(V), V);
    return;
  }
  case Reaction::Kind::SpecialCall:
    // Fixed target, but the callee context is still derived from the
    // receiver object (object sensitivity analyzes constructors under the
    // allocated object's context).
    wireCall(S, R.CallerCM, S.DirectCallee, receiverCtx(V), V);
    return;
  }
}

void Solver::dispatchCatch(CMethodId CM, ValueId V) {
  const Method &M = P.method(CMethods[CM.index()].M);
  for (const CatchClause &Clause : M.Catches) {
    if (P.isSubtype(valueType(V), Clause.CaughtType)) {
      propagate(varNode(CM, Clause.Var), V);
      return; // first matching handler catches (Java semantics)
    }
  }
  propagate(throwNode(CM), V); // uncaught: escapes to callers
}

//===----------------------------------------------------------------------===//
// Reachability and call wiring
//===----------------------------------------------------------------------===//

void Solver::makeReachable(MethodId M, CtxId Ctx) {
  markReachable(internCMethod(M, Ctx));
}

void Solver::markReachable(CMethodId CM) {
  if (!ReachableSet.insert(CM.rawValue()))
    return;
  MethodId M = CMethods[CM.index()].M;
  MethodReached[M.index()] = true;
  if (!P.method(M).IsAbstract)
    processBody(CM);
}

void Solver::processBody(CMethodId CM) {
  MethodId MId = CMethods[CM.index()].M;
  CtxId Ctx = CMethods[CM.index()].Ctx;
  const Method &M = P.method(MId);

  for (uint32_t SI = 0, SE = static_cast<uint32_t>(M.Statements.size());
       SI != SE; ++SI) {
    const Statement &S = M.Statements[SI];
    switch (S.Op) {
    case Opcode::Alloc:
    case Opcode::StringConst: {
      CtxId HeapCtx = Ctxs.truncate(Ctx, Config.HeapDepth);
      propagate(varNode(CM, S.Dst), internValue(S.Site, HeapCtx));
      break;
    }
    case Opcode::Move:
      addEdge(varNode(CM, S.Src), varNode(CM, S.Dst));
      break;
    case Opcode::Cast: {
      NodeId SrcNode = varNode(CM, S.Src);
      addEdge(SrcNode, varNode(CM, S.Dst), S.TypeRef);
      auto [Index, Inserted] = CastIndex.insert(
          packPair(MId.index(), SI), static_cast<uint32_t>(Casts.size()));
      if (Inserted)
        Casts.push_back(
            {S.TypeRef, P.type(M.DeclaringType).IsApplication, {}});
      Casts[Index].SourceNodes.push_back(SrcNode);
      break;
    }
    case Opcode::Load:
      addReaction(Reaction::Kind::LoadBase, S, CM);
      break;
    case Opcode::Store:
      addReaction(Reaction::Kind::StoreBase, S, CM);
      break;
    case Opcode::ArrayLoad:
      addReaction(Reaction::Kind::ArrayLoadBase, S, CM);
      break;
    case Opcode::ArrayStore:
      addReaction(Reaction::Kind::ArrayStoreBase, S, CM);
      break;
    case Opcode::StaticLoad:
      addEdge(staticNode(S.FieldRef), varNode(CM, S.Dst));
      break;
    case Opcode::StaticStore:
      addEdge(varNode(CM, S.Src), staticNode(S.FieldRef));
      break;
    case Opcode::VirtualCall:
      addReaction(Reaction::Kind::VirtualCall, S, CM);
      break;
    case Opcode::SpecialCall:
      addReaction(Reaction::Kind::SpecialCall, S, CM);
      break;
    case Opcode::StaticCall:
      // Static calls inherit the caller's context (Doop's default).
      wireCall(S, CM, S.DirectCallee, Ctx, ValueId::invalid());
      break;
    case Opcode::Return:
      break; // wired per established call edge
    case Opcode::Throw:
      addEdge(varNode(CM, S.Src), catchNode(CM));
      break;
    }
  }
}

void Solver::wireCall(const Statement &S, CMethodId CallerCM, MethodId Callee,
                      CtxId CalleeCtx, ValueId Receiver) {
  const Method &CalleeM = P.method(Callee);
  if (CalleeM.IsAbstract)
    return;

  CMethodId CalleeCM = internCMethod(Callee, CalleeCtx);
  markReachable(CalleeCM);
  // Most wirings repeat their invoke's last callee, whose edge is recorded.
  assert(LastCallee.size() == P.invokeCount() && "the program gained invokes");
  if (std::exchange(LastCallee[S.Invoke.index()], Callee) != Callee) {
    uint64_t CallEdge = packPair(S.Invoke.index(), Callee.index());
    if (CallEdgeSet.insert(CallEdge, static_cast<uint32_t>(CallEdges.size()))
            .second)
      CallEdges.push_back(CallEdge);
  }

  if (Receiver.isValid() && CalleeM.This.isValid())
    propagate(varNode(CalleeCM, CalleeM.This), Receiver);

  size_t ArgCount = std::min(S.Args.size(), CalleeM.Params.size());
  for (size_t I = 0; I != ArgCount; ++I)
    if (S.Args[I].isValid())
      addEdge(varNode(CallerCM, S.Args[I]),
              varNode(CalleeCM, CalleeM.Params[I]));

  if (S.Dst.isValid())
    for (const Statement &CalleeStmt : CalleeM.Statements)
      if (CalleeStmt.Op == Opcode::Return && CalleeStmt.Src.isValid())
        addEdge(varNode(CalleeCM, CalleeStmt.Src),
                varNode(CallerCM, S.Dst));

  // Exceptions escaping the callee reach the caller's catch routing.
  addEdge(throwNode(CalleeCM), catchNode(CallerCM));
}

//===----------------------------------------------------------------------===//
// Seeding and solving
//===----------------------------------------------------------------------===//

void Solver::seedVar(VarId Var, CtxId Ctx, ValueId V) {
  propagate(varNode(internCMethod(P.variable(Var).DeclaringMethod, Ctx), Var),
            V);
}

void Solver::seedVarAllContexts(VarId Var, ValueId V) {
  if (Var.index() >= VarNodes.size())
    return;
  const std::vector<NodeId> &Instances = VarNodes[Var.index()];
  for (size_t I = 0, E = Instances.size(); I != E; ++I)
    propagate(Instances[I], V);
}

void Solver::seedObjectField(ValueId Base, FieldId F, ValueId V) {
  propagate(fieldNode(Base, F), V);
}

void Solver::visit(NodeId N) {
  // Sending the delta only inserts and queues, so no edge changes under
  // the walk, and a self-edge sends values the set holds.
  const uint32_t NIdx = N.index();
  const uint32_t Begin = Visited[NIdx];
  const uint32_t End = static_cast<uint32_t>(PointsTo[NIdx].size());
  Queued[NIdx] = 0;
  Visited[NIdx] = End;
  SolverStats.WorkItems += End - Begin;
  const InsertOrderSet &Set = PointsTo[NIdx];

  // A delta wider than the value bitset's word count goes along each
  // unfiltered edge as one word-wise union.
  const uint32_t Words = (valueCount() + 63) / 64;
  const bool Wide = End - Begin > Words;
  if (Wide) {
    DeltaBits.assign(Words, 0);
    for (uint32_t I = Begin; I != End; ++I)
      DeltaBits[Set[I] / 64] |= uint64_t(1) << (Set[I] % 64);
  }
  for (const Edge &E : Edges[NIdx]) {
    if (Wide && !E.Filter.isValid()) {
      ++SolverStats.WordUnions;
      if (PointsTo[E.Target.index()].insertBits(DeltaBits))
        enqueue(E.Target);
      continue;
    }
    for (uint32_t I = Begin; I != End; ++I)
      if (passesFilter(ValueId(Set[I]), E.Filter))
        propagate(E.Target, ValueId(Set[I]));
  }

  // Fire the delta's reactions, then route a catch node's values. Firing
  // grows every table (`wireCall`, `processBody`), so each is re-indexed
  // and each reaction copied. A reaction added meanwhile has replayed the
  // whole delta in `addReaction`, so the loop stops at the count it began
  // with.
  for (size_t RI = 0, RE = Reactions[NIdx].size(); RI != RE; ++RI) {
    const Reaction R = Reactions[NIdx][RI];
    for (uint32_t I = Begin; I != End; ++I)
      applyReaction(R, ValueId(PointsTo[NIdx][I]));
  }
  if (Nodes[NIdx].Kind == NodeKind::CatchDispatch)
    for (uint32_t I = Begin; I != End; ++I)
      dispatchCatch(CMethodId(Nodes[NIdx].A), ValueId(PointsTo[NIdx][I]));
}

void Solver::drainWorklist() {
  while (!Dirty.empty()) {
    ++SolverStats.Rounds;
    std::swap(Visiting, Dirty); // nodes queued meanwhile wait a generation
    for (NodeId N : Visiting)
      visit(N);
    Visiting.clear();
  }
}

void Solver::solve() {
  while (true) {
    observe::Span FixpointSpan(Trace, "fixpoint", "solver");
    FixpointSpan.arg("round", SolverStats.PluginRounds + 1);
    uint64_t ItemsBefore = SolverStats.WorkItems;
    drainWorklist();
    bool Changed = false;
    for (Plugin *PluginPtr : Plugins)
      Changed |= PluginPtr->onFixpoint(*this);
    ++SolverStats.PluginRounds;
    FixpointSpan.arg("work_items", SolverStats.WorkItems - ItemsBefore);
    if (!Changed && Dirty.empty())
      break;
  }
  publishMetrics();
}

void Solver::publishMetrics() {
  if (!Registry)
    return;
  Registry->add("pointsto.rounds", static_cast<double>(SolverStats.Rounds));
  Registry->add("pointsto.work_items",
                static_cast<double>(SolverStats.WorkItems));
  Registry->add("pointsto.edges_added",
                static_cast<double>(SolverStats.EdgesAdded));
  Registry->add("pointsto.reactions_run",
                static_cast<double>(SolverStats.ReactionsRun));
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

const std::vector<NodeId> &Solver::varInstances(VarId Var) const {
  if (Var.index() >= VarNodes.size())
    return NoInstances;
  return VarNodes[Var.index()];
}

std::vector<AllocSiteId> Solver::varPointsToSites(VarId Var) const {
  std::vector<AllocSiteId> Result;
  for (NodeId N : varInstances(Var))
    for (uint32_t Raw : PointsTo[N.index()])
      Result.push_back(Values[Raw].Site);
  // Canonical order: equal site sets compare equal even when propagation
  // reached them along different schedules.
  std::sort(Result.begin(), Result.end());
  Result.erase(std::unique(Result.begin(), Result.end()), Result.end());
  return Result;
}

std::vector<MethodId> Solver::reachableMethods() const {
  std::vector<bool> Seen(P.methodCount(), false);
  std::vector<MethodId> Result;
  for (uint32_t Raw : ReachableSet) {
    MethodId M = CMethods[Raw].M;
    if (!Seen[M.index()]) {
      Seen[M.index()] = true;
      Result.push_back(M);
    }
  }
  return Result;
}

uint64_t Solver::varPointsToTuples(std::string_view PackagePrefix) const {
  uint64_t Total = 0;
  for (size_t I = 0, E = Nodes.size(); I != E; ++I) {
    if (Nodes[I].Kind != NodeKind::Var)
      continue;
    const Variable &Var = P.variable(VarId(Nodes[I].A));
    TypeId Declaring = P.method(Var.DeclaringMethod).DeclaringType;
    const std::string &ClassName = P.symbols().text(P.type(Declaring).Name);
    if (std::string_view(ClassName).substr(0, PackagePrefix.size()) ==
        PackagePrefix)
      Total += PointsTo[I].size();
  }
  return Total;
}

uint64_t Solver::varPointsToTuplesTotal() const {
  uint64_t Total = 0;
  for (size_t I = 0, E = Nodes.size(); I != E; ++I)
    if (Nodes[I].Kind == NodeKind::Var)
      Total += PointsTo[I].size();
  return Total;
}

Solver::VarPointsToAverages Solver::averageVarPointsTo() const {
  // One walk over the variables. A variable's distinct sites are counted by
  // stamping a dense per-site vector with the variable's index (plus one,
  // so the zero fill means "unseen"); site ids are dense program ids,
  // framework-made objects included.
  std::vector<uint32_t> Stamp(P.allocSiteCount(), 0);
  uint64_t Sum = 0, Pointing = 0, AppSum = 0, AppPointing = 0;
  for (uint32_t VI = 0, VE = static_cast<uint32_t>(VarNodes.size());
       VI != VE; ++VI) {
    uint32_t Distinct = 0;
    for (NodeId N : VarNodes[VI])
      for (uint32_t Raw : PointsTo[N.index()]) {
        uint32_t &Mark = Stamp[Values[Raw].Site.index()];
        if (Mark != VI + 1) {
          Mark = VI + 1;
          ++Distinct;
        }
      }
    if (Distinct == 0)
      continue;
    Sum += Distinct;
    ++Pointing;
    TypeId Declaring =
        P.method(P.variable(VarId(VI)).DeclaringMethod).DeclaringType;
    if (P.type(Declaring).IsApplication) {
      AppSum += Distinct;
      ++AppPointing;
    }
  }
  auto Average = [](uint64_t S, uint64_t N) {
    return N == 0 ? 0.0 : static_cast<double>(S) / static_cast<double>(N);
  };
  return {Average(Sum, Pointing), Average(AppSum, AppPointing)};
}

observe::ProfileCensus Solver::censusPointsTo(
    const std::vector<std::string> &PackagePrefixes) const {
  observe::ProfileCensus C;
  // Exact distinct-set accounting: the canonical (sorted) contents are the
  // set key, so equal sets compare equal regardless of the insertion order
  // propagation produced, and there are no hash-collision undercounts. An
  // ordered set keeps the walk allocation-bounded by the distinct count —
  // which is the whole point of the census being small.
  std::set<std::vector<uint32_t>> Distinct;
  std::vector<uint32_t> Key;
  for (size_t I = 0, E = Nodes.size(); I != E; ++I) {
    if (Nodes[I].Kind != NodeKind::Var)
      continue;
    ++C.VarNodes;
    const InsertOrderSet &Set = PointsTo[I];
    if (Set.empty())
      continue;
    ++C.NonEmptySets;
    C.TotalEntries += Set.size();
    C.SetBytes += Set.bytes();
    C.MaxSetSize = std::max<uint64_t>(C.MaxSetSize, Set.size());
    size_t Bucket = 0;
    while ((uint64_t(1) << Bucket) < Set.size())
      ++Bucket;
    if (C.Histogram.size() <= Bucket)
      C.Histogram.resize(Bucket + 1, 0);
    ++C.Histogram[Bucket];
    Key.assign(Set.begin(), Set.end());
    std::sort(Key.begin(), Key.end());
    // Hash-consing would keep the first set of each contents class, in
    // node order, and free the others.
    if (!Distinct.insert(Key).second)
      C.ReclaimableBytes += Set.bytes();
  }
  C.DistinctSets = Distinct.size();
  for (const std::vector<uint32_t> &Contents : Distinct)
    C.DistinctEntries += Contents.size();
  for (const std::string &Prefix : PackagePrefixes)
    C.Packages.push_back({Prefix, varPointsToTuples(Prefix)});
  return C;
}
