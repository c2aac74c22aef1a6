//===- javalib_property_test.cpp - Randomized soundness sweeps -------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Property-based validation of the sound-modulo-analysis claim on random
// client programs: for seeded random sequences of map operations
// (construction, put, get, remove, getOrDefault, replace, putAll,
// values/entrySet iteration), every value type that was
// dynamically stored into a map MUST be observed by every read of that map
// — under both library models and under every analysis configuration.
// This is checkable ground truth: the generator knows exactly which
// payload types it stored where.
//
//===----------------------------------------------------------------------===//

#include "ClientGenerator.h"
#include "pointsto/Solver.h"

#include <gtest/gtest.h>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::javalib;
using namespace jackee::pointsto;

namespace {

using test::Observation;

bool observes(const Solver &S, VarId V, const std::string &TypeName) {
  for (AllocSiteId Site : S.varPointsToSites(V)) {
    TypeId T = S.program().allocSite(Site).ObjectType;
    if (S.program().symbols().text(S.program().type(T).Name) == TypeName)
      return true;
  }
  return false;
}

struct SweepCase {
  uint32_t Seed;
  bool SoundModulo;
  uint32_t K, H;
};

class RandomClientSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RandomClientSweep, StoredTypesAreObserved) {
  SweepCase C = GetParam();
  auto Client = test::generate(C.Seed, C.SoundModulo);

  Solver S(*Client->P, SolverConfig{C.K, C.H});
  S.makeReachable(Client->Main, S.contexts().empty());
  S.solve();

  for (const Observation &Obs : Client->Observations)
    for (const std::string &Stored : Client->StoredTypes[Obs.MapIndex])
      EXPECT_TRUE(observes(S, Obs.Var, Stored))
          << "seed " << C.Seed << " mode "
          << (C.SoundModulo ? "sound-modulo" : "original") << " K=" << C.K
          << ": " << Obs.What << " on map " << Obs.MapIndex
          << " must observe " << Stored;
}

std::vector<SweepCase> makeCases() {
  std::vector<SweepCase> Cases;
  for (uint32_t Seed = 1; Seed <= 12; ++Seed)
    for (bool SoundModulo : {false, true})
      for (auto [K, H] : {std::pair{0u, 0u}, std::pair{2u, 1u}})
        Cases.push_back({Seed, SoundModulo, K, H});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomClientSweep,
                         ::testing::ValuesIn(makeCases()));

} // namespace
