//===- pointsto_order_test.cpp - Points-to propagation-order pins ---------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// The delta worklist (DESIGN.md §11) fixes the order in which values
// reach points-to sets. These pins fix four cells' effort counters, set
// insertion orders and call-graph growth order to recorded values, so a
// change that claims to keep the propagation order has to reproduce them
// exactly. Each pin also holds an order-free hash of the cell's
// context-sensitive results, which no schedule may change.
//
//===----------------------------------------------------------------------===//

#include "PointsToProjection.h"
#include "core/Session.h"
#include "pointsto/Solver.h"
#include "synth/SynthApp.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::pointsto;

namespace {

using test::OrderHash;

/// Every var node's points-to set in insertion order: vars by id, each
/// var's context instances in creation order, each set's value ids in the
/// order propagation inserted them. Equal hashes mean the same sets were
/// filled in the same order, not merely to the same contents.
uint64_t varSetOrderHash(const Solver &S) {
  OrderHash H;
  for (uint32_t VI = 0; VI != S.program().variableCount(); ++VI)
    for (NodeId N : S.varInstances(VarId(VI))) {
      H.mix(packPair(VI, N.rawValue()));
      for (uint32_t Raw : S.pointsTo(N))
        H.mix(Raw);
    }
  return H.value();
}

/// Every node's set — field, array, static, throw and catch nodes too — by
/// node id, so node interning order is pinned along with insertion order.
uint64_t nodeSetOrderHash(const Solver &S) {
  OrderHash H;
  for (uint32_t NI = 0; NI != S.nodeCount(); ++NI) {
    const InsertOrderSet &Set = S.pointsTo(NodeId(NI));
    H.mix(packPair(NI, static_cast<uint32_t>(Set.size())));
    for (uint32_t Raw : Set)
      H.mix(Raw);
  }
  return H.value();
}

/// The call graph's first-wired edge sequence and the reachable (method,
/// context) pairs in first-reached order.
uint64_t callGraphOrderHash(const Solver &S) {
  OrderHash H;
  for (uint64_t Edge : S.callGraphEdges())
    H.mix(Edge);
  for (uint32_t Raw : S.reachableCMethods())
    H.mix(packPair(S.cmethodMethod(CMethodId(Raw)).rawValue(),
                   S.cmethodCtx(CMethodId(Raw)).rawValue()));
  return H.value();
}

/// A cell's solver effort counters and orders, as recorded. A change that
/// keeps the propagation order must reproduce them exactly; one that
/// changes the order on purpose re-records them and says why. The
/// projection hash covers the context-sensitive results alone, through the
/// points-to oracle's projection, so no schedule may change it.
struct OrderPin {
  synth::BenchApp App;
  core::AnalysisKind Kind;
  uint64_t WorkItems, Rounds, EdgesAdded, ReactionsRun, WordUnions;
  uint32_t PluginRounds;
  uint64_t SetOrderHash;
  size_t LargestVarSet; ///< far past the sets' scan-to-bitset switch
  uint32_t Nodes;
  uint64_t NodeSetOrderHash;
  uint64_t CallGraphOrderHash;
  uint64_t ProjectionHash;
};

void expectPinned(const OrderPin &Pin) {
  core::SessionOptions SO;
  SO.Jobs = 1;
  core::AnalysisSession Session(SO);
  core::CellResult Cell =
      Session.open(synth::applicationFor(Pin.App), Pin.Kind);
  ASSERT_TRUE(Cell.ok()) << Cell.error().Message;
  const Solver &S = Cell->solver();
  size_t Largest = 0;
  for (uint32_t VI = 0; VI != S.program().variableCount(); ++VI)
    for (NodeId N : S.varInstances(VarId(VI)))
      Largest = std::max<size_t>(Largest, S.pointsTo(N).size());
  EXPECT_EQ(S.stats().WorkItems, Pin.WorkItems);
  EXPECT_EQ(S.stats().Rounds, Pin.Rounds);
  EXPECT_EQ(S.stats().EdgesAdded, Pin.EdgesAdded);
  EXPECT_EQ(S.stats().ReactionsRun, Pin.ReactionsRun);
  EXPECT_EQ(S.stats().WordUnions, Pin.WordUnions);
  EXPECT_EQ(S.stats().PluginRounds, Pin.PluginRounds);
  EXPECT_EQ(varSetOrderHash(S), Pin.SetOrderHash);
  EXPECT_EQ(Largest, Pin.LargestVarSet);
  EXPECT_EQ(S.nodeCount(), Pin.Nodes);
  EXPECT_EQ(nodeSetOrderHash(S), Pin.NodeSetOrderHash);
  EXPECT_EQ(callGraphOrderHash(S), Pin.CallGraphOrderHash);
  bool Fits = false;
  EXPECT_EQ(test::orderFreeHash(test::projectSolver(S, Fits)),
            Pin.ProjectionHash);
  EXPECT_TRUE(Fits);
}

TEST(PointsToOrderPin, WebGoat2ObjH) {
  expectPinned({synth::BenchApp::WebGoat, core::AnalysisKind::TwoObjH,
                /*WorkItems=*/47307, /*Rounds=*/34, /*EdgesAdded=*/20309,
                /*ReactionsRun=*/8025, /*WordUnions=*/4191,
                /*PluginRounds=*/2,
                /*SetOrderHash=*/6120506572574467286ULL,
                /*LargestVarSet=*/62, /*Nodes=*/9076,
                /*NodeSetOrderHash=*/18129906952242428876ULL,
                /*CallGraphOrderHash=*/17159659835633536043ULL,
                /*ProjectionHash=*/15440131173758851716ULL});
}

TEST(PointsToOrderPin, PybbsMod2ObjH) {
  expectPinned({synth::BenchApp::Pybbs, core::AnalysisKind::Mod2ObjH,
                /*WorkItems=*/23103, /*Rounds=*/31, /*EdgesAdded=*/12811,
                /*ReactionsRun=*/4133, /*WordUnions=*/2511,
                /*PluginRounds=*/2,
                /*SetOrderHash=*/6287321715742953932ULL,
                /*LargestVarSet=*/73, /*Nodes=*/4580,
                /*NodeSetOrderHash=*/13506040737212080990ULL,
                /*CallGraphOrderHash=*/17242588261539309519ULL,
                /*ProjectionHash=*/8309810770669639723ULL});
}

/// A context-insensitive cell of a large app: 301 cast records, most of
/// whose filters reject some source value, catch routing of the java.util
/// models' exceptions, and interning tables that grow through many
/// resizes.
TEST(PointsToOrderPin, DotCMSCi) {
  expectPinned({synth::BenchApp::DotCMS, core::AnalysisKind::CI,
                /*WorkItems=*/405272, /*Rounds=*/31, /*EdgesAdded=*/32691,
                /*ReactionsRun=*/47148, /*WordUnions=*/3930,
                /*PluginRounds=*/2,
                /*SetOrderHash=*/6423829365812466073ULL,
                /*LargestVarSet=*/442, /*Nodes=*/9650,
                /*NodeSetOrderHash=*/10675618049112156020ULL,
                /*CallGraphOrderHash=*/9621252397657792610ULL,
                /*ProjectionHash=*/10456136415059500522ULL});
}

/// A mid-size object-sensitive cell whose reactions replay: many bodies
/// allocate or move into a variable before the statement that adds a
/// reaction on it, so the replay at `addReaction` and the base's visits
/// share each reaction's values between them.
TEST(PointsToOrderPin, Shopizer2ObjH) {
  expectPinned({synth::BenchApp::Shopizer, core::AnalysisKind::TwoObjH,
                /*WorkItems=*/386905, /*Rounds=*/35, /*EdgesAdded=*/113463,
                /*ReactionsRun=*/38251, /*WordUnions=*/21272,
                /*PluginRounds=*/2,
                /*SetOrderHash=*/6303929922771607202ULL,
                /*LargestVarSet=*/222, /*Nodes=*/27310,
                /*NodeSetOrderHash=*/4729638769017476507ULL,
                /*CallGraphOrderHash=*/11235114849572202513ULL,
                /*ProjectionHash=*/3881104533342868964ULL});
}

} // namespace
