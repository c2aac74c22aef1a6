//===- pointsto_order_test.cpp - Points-to propagation-order pins ---------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// The staged drain (DESIGN.md §11) fixes the order in which values reach
// points-to sets. These pins fix two cells' effort counters and set
// insertion orders to recorded values, so a change that claims to keep the
// propagation order has to reproduce them exactly.
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

/// FNV-1a over every var node's points-to set in insertion order: vars by
/// id, each var's context instances in creation order, each set's value ids
/// in the order propagation inserted them. Equal hashes mean the same sets
/// were filled in the same order, not merely to the same contents.
uint64_t varSetOrderHash(const Solver &S) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  auto Mix = [&Hash](uint64_t Word) {
    for (int Byte = 0; Byte != 8; ++Byte) {
      Hash ^= (Word >> (8 * Byte)) & 0xFF;
      Hash *= 0x100000001b3ULL;
    }
  };
  for (uint32_t VI = 0; VI != S.program().variableCount(); ++VI)
    for (NodeId N : S.varInstances(VarId(VI))) {
      Mix(packPair(VI, N.rawValue()));
      for (uint32_t Raw : S.pointsTo(N))
        Mix(Raw);
    }
  return Hash;
}

/// A cell's solver effort counters and set order, as recorded. A change
/// that keeps the propagation order must reproduce them exactly; one that
/// changes the order on purpose re-records them and says why.
struct OrderPin {
  synth::BenchApp App;
  core::AnalysisKind Kind;
  uint64_t WorkItems, Rounds, EdgesAdded, ReactionsRun;
  uint32_t PluginRounds;
  uint64_t SetOrderHash;
  size_t LargestVarSet; ///< far past the sets' scan-to-bitset switch
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
}

TEST(PointsToOrderPin, WebGoat2ObjH) {
  expectPinned({synth::BenchApp::WebGoat, core::AnalysisKind::TwoObjH,
                /*WorkItems=*/47307, /*Rounds=*/33, /*EdgesAdded=*/20309,
                /*ReactionsRun=*/10165, /*PluginRounds=*/2,
                /*SetOrderHash=*/12890229860717409760ULL,
                /*LargestVarSet=*/62});
}

TEST(PointsToOrderPin, PybbsMod2ObjH) {
  expectPinned({synth::BenchApp::Pybbs, core::AnalysisKind::Mod2ObjH,
                /*WorkItems=*/23103, /*Rounds=*/28, /*EdgesAdded=*/12811,
                /*ReactionsRun=*/5488, /*PluginRounds=*/2,
                /*SetOrderHash=*/4174156672662490441ULL,
                /*LargestVarSet=*/73});
}

} // namespace
