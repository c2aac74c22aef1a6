//===- Solver.h - Context-sensitive points-to analysis ----------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The points-to engine: a subset-based (Andersen-style), flow-, path- and
/// array-insensitive analysis with on-the-fly call-graph construction and
/// parameterizable object sensitivity — the hand-coded equivalent of the
/// Doop core the paper builds on. Configurations used in the evaluation:
///
///   - `ci`        : ContextDepth 0, HeapDepth 0 (context-insensitive)
///   - `1objH`     : ContextDepth 1, HeapDepth 1
///   - `2objH`     : ContextDepth 2, HeapDepth 1 (the paper's "golden
///                   standard" precise analysis)
///
/// The graph has five node kinds: context-qualified variables, (object,
/// field) pairs, object array contents, static fields, and per-context-
/// method exception nodes. Subset edges (optionally type-filtered, for
/// casts) propagate abstract objects; *reactions* attached to variable nodes
/// implement field access, array access, virtual dispatch and
/// receiver-contextualized constructor calls when base variables gain
/// objects.
///
/// Virtual dispatch computes the callee context as
/// `suffix(heapCtx(recv) ++ [site(recv)], K)` — which is exactly why the
/// original HashMap's TreeNode double-dispatch collapses 2objH to 1objH
/// precision (Section 4 of the paper): the receiver is an internal TreeNode
/// allocation, so the context no longer distinguishes the map's clients.
///
/// The worklist drain (DESIGN.md §11) visits the nodes whose sets grew, in
/// queue order. A visit is the solver's one step: it sends the node's
/// delta, the values gained since its last visit, along each out-edge once
/// (word-wise when wide), then fires the node's reactions and routes its
/// catches for the same delta (call wiring, body processing). Every
/// schedule reaches the same least fixpoint, so no result depends on the
/// visit order; set insertion orders and the call-graph order do.
///
/// Plugins (`Plugin::onFixpoint`) run each time the worklist drains and may
/// inject new facts (entry points, bean injections, getBean seeds); solving
/// continues until plugins make no further changes. This realizes the
/// paper's recursive framework/analysis coupling (Section 3.5) and keeps
/// the bean-wiring coupling rounds as the coarse synchronization points.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_POINTSTO_SOLVER_H
#define JACKEE_POINTSTO_SOLVER_H

#include "ir/Program.h"
#include "observe/Profile.h"
#include "observe/Trace.h"
#include "pointsto/Context.h"
#include "support/DenseSet.h"
#include "support/FlatMap.h"

#include <array>
#include <vector>

namespace jackee {

namespace observe {
class MetricsRegistry;
}

namespace pointsto {

/// A context-qualified abstract object: (allocation site, heap context).
using ValueId = Id<struct ValueTag>;
/// A node of the propagation graph.
using NodeId = Id<struct NodeTag>;
/// A context-qualified method: (method, context).
using CMethodId = Id<struct CMethodTag>;

/// Analysis configuration.
struct SolverConfig {
  /// K: method-context depth (number of receiver allocation sites).
  uint32_t ContextDepth = 0;
  /// H: heap-context depth.
  uint32_t HeapDepth = 0;
};

class Solver;

/// Extension hook, run at every intermediate fixpoint. The framework layer
/// uses this to evaluate its Datalog rules against current analysis results
/// and feed consequences back (bean injection, getBean, mock entry points).
class Plugin {
public:
  virtual ~Plugin() = default;
  /// \returns true if new work was injected (solving continues).
  virtual bool onFixpoint(Solver &S) = 0;
};

/// The points-to solver. Construct, seed entry points, `solve()`, query.
class Solver {
public:
  Solver(const ir::Program &P, SolverConfig Config);
  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;

  const ir::Program &program() const { return P; }
  const SolverConfig &config() const { return Config; }
  ContextTable &contexts() { return Ctxs; }
  const ContextTable &contexts() const { return Ctxs; }

  /// Registers \p PluginPtr (not owned). Plugins run in registration order.
  void addPlugin(Plugin *PluginPtr) { Plugins.push_back(PluginPtr); }

  /// Attaches \p T as the span tracer (nullptr detaches). `solve()` emits
  /// one structural `solver`-category "fixpoint" span per
  /// drain-worklist/plugin iteration, whose args (round index, work-item
  /// counts) are deterministic for a given analysis input.
  void setTracer(observe::Tracer *T) { Trace = T; }
  observe::Tracer *tracer() const { return Trace; }

  /// Attaches \p R to receive solver metrics (nullptr detaches). `solve()`
  /// publishes `pointsto.rounds`, `pointsto.work_items`,
  /// `pointsto.edges_added` and `pointsto.reactions_run`, all
  /// deterministic.
  void setMetricsRegistry(observe::MetricsRegistry *R) { Registry = R; }

  // --- Seeding (used by drivers and the framework layer) -----------------

  /// Interns the abstract object (site, heap context).
  ValueId internValue(ir::AllocSiteId Site, CtxId HeapCtx);

  /// Marks (method, ctx) reachable and processes its body once.
  void makeReachable(ir::MethodId M, CtxId Ctx);

  /// Injects \p V into variable \p Var under context \p Ctx.
  void seedVar(ir::VarId Var, CtxId Ctx, ValueId V);

  /// Injects \p V into every existing context instance of \p Var. Used by
  /// plugins that reason context-insensitively (e.g. getBean modeling).
  void seedVarAllContexts(ir::VarId Var, ValueId V);

  /// Injects `Base.F -> V` — dependency injection of beans
  /// (ObjectFieldPointsTo in the paper's Section 3.5).
  void seedObjectField(ValueId Base, ir::FieldId F, ValueId V);

  // --- Solving ------------------------------------------------------------

  /// Runs to fixpoint, interleaving plugin rounds.
  void solve();

  // --- Queries ------------------------------------------------------------

  const ir::AllocSite &valueSite(ValueId V) const {
    return P.allocSite(Values[V.index()].Site);
  }
  ir::AllocSiteId valueSiteId(ValueId V) const {
    return Values[V.index()].Site;
  }
  ir::TypeId valueType(ValueId V) const {
    return P.allocSite(Values[V.index()].Site).ObjectType;
  }
  CtxId valueHeapCtx(ValueId V) const { return Values[V.index()].HeapCtx; }
  uint32_t valueCount() const {
    return static_cast<uint32_t>(Values.size());
  }

  /// Nodes interned so far; `NodeId`s are dense in [0, nodeCount()).
  uint32_t nodeCount() const { return static_cast<uint32_t>(Nodes.size()); }

  /// Context instances (variable nodes) of \p Var created so far.
  const std::vector<NodeId> &varInstances(ir::VarId Var) const;
  /// The context of variable node \p N, one of some `varInstances`.
  CtxId varNodeCtx(NodeId N) const { return CtxId(Nodes[N.index()].B); }

  /// Points-to set of one node (ValueId raw indexes).
  const InsertOrderSet &pointsTo(NodeId N) const {
    return PointsTo[N.index()];
  }

  /// Context-insensitive projection: distinct allocation sites pointed to by
  /// any context instance of \p Var, sorted by site id (canonical order, so
  /// two variables with equal site *sets* compare equal regardless of the
  /// order propagation reached them).
  std::vector<ir::AllocSiteId> varPointsToSites(ir::VarId Var) const;

  /// All (method, ctx) pairs reached.
  const InsertOrderSet &reachableCMethods() const {
    return ReachableSet;
  }
  ir::MethodId cmethodMethod(CMethodId CM) const {
    return CMethods[CM.index()].M;
  }
  CtxId cmethodCtx(CMethodId CM) const { return CMethods[CM.index()].Ctx; }

  /// Context-insensitive reachable method set, in first-reached order.
  std::vector<ir::MethodId> reachableMethods() const;
  bool isMethodReachable(ir::MethodId M) const {
    return M.index() < MethodReached.size() && MethodReached[M.index()];
  }

  /// Distinct (invocation, target-method) call-graph edges, packed with
  /// `packPair`, in first-wired order.
  const std::vector<uint64_t> &callGraphEdges() const { return CallEdges; }

  /// One record per cast statement occurrence (deduplicated by statement);
  /// used for the may-fail-cast metric.
  struct CastRecord {
    ir::TypeId TargetType;
    bool InApplication;
    std::vector<NodeId> SourceNodes; ///< one per context instance
  };
  const std::vector<CastRecord> &castRecords() const { return Casts; }

  /// Total context-sensitive var-points-to tuples whose variable's declaring
  /// class name starts with \p PackagePrefix — the paper's heuristic for
  /// attributing analysis cost to java.util (Figure 5).
  uint64_t varPointsToTuples(std::string_view PackagePrefix) const;
  /// Total context-sensitive var-points-to tuples.
  uint64_t varPointsToTuplesTotal() const;

  /// Table 1's average points-to sizes: the context-insensitive projection
  /// (distinct allocation sites per variable), averaged over the variables
  /// that point to at least one object — all of them (`All`), and those
  /// whose declaring class is an application class (`App`).
  struct VarPointsToAverages {
    double All = 0.0;
    double App = 0.0;
  };
  VarPointsToAverages averageVarPointsTo() const;

  /// The points-to set census of DESIGN.md §14: keys every var node's set
  /// by its canonical (sorted) contents to count distinct vs total sets, a
  /// power-of-two size histogram, and the bytes hash-consing (the ROADMAP
  /// item on compact points-to sets) would reclaim. One `PackageShare` row
  /// per entry of \p PackagePrefixes (`varPointsToTuples` on each — where
  /// the paper's `java.util` elephants light up). Run at fixpoint; every
  /// field is deterministic, and the walk sorts each set before keying, so
  /// equal contents count as one set whatever their insertion order.
  observe::ProfileCensus
  censusPointsTo(const std::vector<std::string> &PackagePrefixes) const;

  /// Effort counters (DESIGN.md §11.3).
  struct Stats {
    uint64_t WorkItems = 0;
    uint64_t EdgesAdded = 0;
    uint64_t ReactionsRun = 0;
    uint32_t PluginRounds = 0;
    uint64_t Rounds = 0;
    uint64_t WordUnions = 0;
  };
  const Stats &stats() const { return SolverStats; }

private:
  // --- Graph node model ---------------------------------------------------

  /// The first three kinds are interned by hashing (A, B); the others
  /// live in their context-qualified method's slot block.
  enum class NodeKind : uint8_t {
    ObjectField,   ///< (ValueId, FieldId)
    ArrayContents, ///< (ValueId)
    StaticField,   ///< (FieldId)
    Var,           ///< (VarId, CtxId)
    MethodThrow,   ///< (CMethodId) — exceptions escaping the method
    CatchDispatch, ///< (CMethodId) — thrown values awaiting catch routing
  };

  struct Node {
    NodeKind Kind;
    uint32_t A = 0; ///< kind-dependent payload
    uint32_t B = 0;
  };

  struct Edge {
    NodeId Target;
    ir::TypeId Filter; ///< invalid = unconditional
  };

  /// Deferred behaviors attached to variable nodes, fired once per object
  /// of the base's set.
  struct Reaction {
    enum class Kind : uint8_t {
      LoadBase,      ///< Dst = Base.F
      StoreBase,     ///< Base.F = Src
      ArrayLoadBase, ///< Dst = Base[*]
      ArrayStoreBase,///< Base[*] = Src
      VirtualCall,   ///< dispatch on arriving receiver
      SpecialCall,   ///< fixed target, receiver-contextualized
    };
    Kind RKind;
    CMethodId CallerCM; ///< the statement's (method, context)
    const ir::Statement *Stmt;
  };
  static_assert(sizeof(Reaction) == 16, "one per statement and context");

  /// Appends a node with empty per-node state.
  NodeId newNode(NodeKind Kind, uint32_t A, uint32_t B);
  /// Finds or appends a node of a hashed kind.
  NodeId internNode(NodeKind Kind, uint32_t A, uint32_t B);
  /// \p Var under the context of \p CM, whose method declares it.
  NodeId varNode(CMethodId CM, ir::VarId Var);
  NodeId fieldNode(ValueId Base, ir::FieldId F);
  NodeId arrayNode(ValueId Base);
  NodeId staticNode(ir::FieldId F);
  NodeId throwNode(CMethodId CM);
  NodeId catchNode(CMethodId CM);

  CMethodId internCMethod(ir::MethodId M, CtxId Ctx);
  /// `suffix(heapCtx(V) ++ [site(V)], K)`: the context of a call on \p V.
  CtxId receiverCtx(ValueId V);
  /// `makeReachable` for an interned (method, ctx).
  void markReachable(CMethodId CM);

  void propagate(NodeId N, ValueId V);
  void enqueue(NodeId N); ///< queues \p N unless it is queued

  void addEdge(NodeId From, NodeId To, ir::TypeId Filter = ir::TypeId::invalid());
  /// Attaches a reaction of \p S's kind to \p S's base under \p CM and
  /// fires it for the base's visited prefix.
  void addReaction(Reaction::Kind Kind, const ir::Statement &S,
                   CMethodId CM);
  void applyReaction(const Reaction &R, ValueId V);
  void dispatchCatch(CMethodId CM, ValueId V);

  /// Sends \p N's delta along its out-edges, then fires its reactions and
  /// routes its catches for the same delta.
  void visit(NodeId N);
  void drainWorklist();
  void publishMetrics();

  /// Processes all statements of a newly reachable (method, ctx).
  void processBody(CMethodId CM);

  /// Establishes a call edge: reachability, receiver/argument/return/
  /// exception wiring, call-graph recording.
  void wireCall(const ir::Statement &S, CMethodId CallerCM,
                ir::MethodId Callee, CtxId CalleeCtx, ValueId Receiver);

  bool passesFilter(ValueId V, ir::TypeId Filter) const;

  const ir::Program &P;
  SolverConfig Config;
  ContextTable Ctxs;

  // Value interning.
  struct ValueKey {
    ir::AllocSiteId Site;
    CtxId HeapCtx;
    CtxId ReceiverCtx; ///< `receiverCtx`, invalid until first asked
  };
  std::vector<ValueKey> Values;
  FlatMap ValueLookup;

  // Node interning of the hashed kinds: one exact map per kind, keyed by
  // packPair(A, B).
  static constexpr size_t NumHashedKinds =
      static_cast<size_t>(NodeKind::StaticField) + 1;
  std::vector<Node> Nodes;
  std::array<FlatMap, NumHashedKinds> NodeLookup;

  // CMethod interning. Each (method, context) owns a block of node slots in
  // `Slots`: its throw node, its catch node, then one per variable its
  // method declares. A slot stays invalid until its node is first asked
  // for, so node ids keep their first-request order.
  static constexpr uint32_t ThrowSlot = 0, CatchSlot = 1, FirstVarSlot = 2;
  struct CMethod {
    ir::MethodId M;
    CtxId Ctx;
    uint32_t FirstSlot; ///< index of the block in `Slots`
  };
  std::vector<CMethod> CMethods;
  FlatMap CMethodLookup;
  std::vector<NodeId> Slots;
  // Fixed for the solver's lifetime: the program gains no methods,
  // variables or invokes while a solver lives (plugins add only sites).
  std::vector<uint32_t> MethodSlotCount; ///< by MethodId
  std::vector<uint32_t> VarSlot;         ///< by VarId, within its block

  // Per-node state (indexed by NodeId). An edge is unique by (Target,
  // Filter) within its source's vector. Every out-edge and reaction of a
  // node has seen its set's positions [0, `Visited`), so its delta is the
  // positions from there on; a node whose set grew past it is `Queued`.
  std::vector<InsertOrderSet> PointsTo;
  std::vector<std::vector<Edge>> Edges;
  std::vector<std::vector<Reaction>> Reactions;
  std::vector<uint32_t> Visited;
  std::vector<uint8_t> Queued;

  // Var -> its context instances.
  std::vector<std::vector<NodeId>> VarNodes;

  InsertOrderSet ReachableSet;     // CMethodId raw
  std::vector<bool> MethodReached; // by MethodId

  // packPair(invoke, calleeMethod): not dense ids, so membership is hashed,
  // unless the invoke wires its last callee again (`LastCallee`).
  std::vector<uint64_t> CallEdges;
  FlatMap CallEdgeSet;
  std::vector<ir::MethodId> LastCallee; // by InvokeId

  // packPair(method, statement position) -> index into `Casts`.
  std::vector<CastRecord> Casts;
  FlatMap CastIndex;

  // The queue, one generation at a time: nodes queued while `Visiting` is
  // visited wait in `Dirty` for the next.
  std::vector<NodeId> Dirty, Visiting;
  /// A wide delta's values as a bitset over value ids, rebuilt per visit.
  std::vector<uint64_t> DeltaBits;

  std::vector<Plugin *> Plugins;
  Stats SolverStats;
  observe::Tracer *Trace = nullptr;
  observe::MetricsRegistry *Registry = nullptr;

  static const std::vector<NodeId> NoInstances;
};

} // namespace pointsto
} // namespace jackee

#endif // JACKEE_POINTSTO_SOLVER_H
