//===- pointsto_order_test.cpp - Points-to propagation-order pins ---------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// The staged drain (DESIGN.md §11) fixes the order in which values reach
// points-to sets. These pins fix four cells' effort counters, set
// insertion orders and call-graph growth order to recorded values, so a
// change that claims to keep the propagation order has to reproduce them
// exactly.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "pointsto/Solver.h"
#include "synth/SynthApp.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::pointsto;

namespace {

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
/// changes the order on purpose re-records them and says why.
struct OrderPin {
  synth::BenchApp App;
  core::AnalysisKind Kind;
  uint64_t WorkItems, Rounds, EdgesAdded, ReactionsRun;
  uint32_t PluginRounds;
  uint64_t SetOrderHash;
  size_t LargestVarSet; ///< far past the sets' scan-to-bitset switch
  uint32_t Nodes;
  uint64_t NodeSetOrderHash;
  uint64_t CallGraphOrderHash;
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
  EXPECT_EQ(S.stats().PluginRounds, Pin.PluginRounds);
  EXPECT_EQ(varSetOrderHash(S), Pin.SetOrderHash);
  EXPECT_EQ(Largest, Pin.LargestVarSet);
  EXPECT_EQ(S.nodeCount(), Pin.Nodes);
  EXPECT_EQ(nodeSetOrderHash(S), Pin.NodeSetOrderHash);
  EXPECT_EQ(callGraphOrderHash(S), Pin.CallGraphOrderHash);
}

TEST(PointsToOrderPin, WebGoat2ObjH) {
  expectPinned({synth::BenchApp::WebGoat, core::AnalysisKind::TwoObjH,
                /*WorkItems=*/47307, /*Rounds=*/33, /*EdgesAdded=*/20309,
                /*ReactionsRun=*/7716, /*PluginRounds=*/2,
                /*SetOrderHash=*/12890229860717409760ULL,
                /*LargestVarSet=*/62, /*Nodes=*/9076,
                /*NodeSetOrderHash=*/17559045104955714570ULL,
                /*CallGraphOrderHash=*/13218963960491359758ULL});
}

TEST(PointsToOrderPin, PybbsMod2ObjH) {
  expectPinned({synth::BenchApp::Pybbs, core::AnalysisKind::Mod2ObjH,
                /*WorkItems=*/23103, /*Rounds=*/28, /*EdgesAdded=*/12811,
                /*ReactionsRun=*/3819, /*PluginRounds=*/2,
                /*SetOrderHash=*/4174156672662490441ULL,
                /*LargestVarSet=*/73, /*Nodes=*/4580,
                /*NodeSetOrderHash=*/4701208184883648524ULL,
                /*CallGraphOrderHash=*/3505139064646374941ULL});
}

/// A context-insensitive cell of a large app: 301 cast records, most of
/// whose filters reject some source value, catch routing of the java.util
/// models' exceptions, and interning tables that grow through many
/// resizes.
TEST(PointsToOrderPin, DotCMSCi) {
  expectPinned({synth::BenchApp::DotCMS, core::AnalysisKind::CI,
                /*WorkItems=*/405272, /*Rounds=*/29, /*EdgesAdded=*/32691,
                /*ReactionsRun=*/46992, /*PluginRounds=*/2,
                /*SetOrderHash=*/8802010730966064784ULL,
                /*LargestVarSet=*/442, /*Nodes=*/9650,
                /*NodeSetOrderHash=*/5535888807610154912ULL,
                /*CallGraphOrderHash=*/3028414799396689958ULL});
}

/// A mid-size object-sensitive cell whose reactions re-fire: many bodies
/// allocate or move into a variable before the statement that adds a
/// reaction on it, so the replay at `addReaction` and the round's phase
/// both meet the same (reaction, value) pairs.
TEST(PointsToOrderPin, Shopizer2ObjH) {
  expectPinned({synth::BenchApp::Shopizer, core::AnalysisKind::TwoObjH,
                /*WorkItems=*/386905, /*Rounds=*/34, /*EdgesAdded=*/113463,
                /*ReactionsRun=*/36449, /*PluginRounds=*/2,
                /*SetOrderHash=*/18070502441667038186ULL,
                /*LargestVarSet=*/222, /*Nodes=*/27310,
                /*NodeSetOrderHash=*/15273134069072817263ULL,
                /*CallGraphOrderHash=*/7352641578746377778ULL});
}

} // namespace
