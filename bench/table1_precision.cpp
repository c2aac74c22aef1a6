//===- table1_precision.cpp - Reproduces the paper's Table 1 ---------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// For every benchmark application and every analysis in {ci, 2objH,
// mod-2objH}, prints the paper's five precision metrics plus elapsed time:
// average points-to set size (all vars / app vars), call-graph edges,
// application polymorphic virtual calls, application may-fail casts.
// In all metrics lower is better; the expected shape is
// mod-2objH <= 2objH < ci on precision and mod-2objH much faster than
// 2objH (paper Table 1).
//
// The matrix runs through a shared `core::AnalysisSession`: one cached
// base-program snapshot per collection model, cells run one at a time so
// the time column includes no contention between cells.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "synth/SynthApp.h"

#include <cstdio>
#include <vector>

using namespace jackee;
using namespace jackee::core;

int main() {
  std::printf("=== Table 1: precision + speed metrics "
              "(lower is better) ===\n\n");
  std::printf("%-12s %-10s %8s %8s %10s %7s %9s %7s %9s %8s\n", "benchmark",
              "analysis", "objs/var", "objs/app", "cg-edges", "methods",
              "polyvcall", "/sites", "mayfail", "time(s)");

  std::vector<Application> Apps = synth::allBenchmarks();
  std::vector<AnalysisKind> Kinds = {AnalysisKind::CI, AnalysisKind::TwoObjH,
                                     AnalysisKind::Mod2ObjH};
  SessionOptions SO;
  SO.Jobs = 1;
  AnalysisSession Session(SO);
  std::vector<AnalysisResult> Results = Session.runMatrix(Apps, Kinds);

  for (size_t I = 0; I != Apps.size(); ++I) {
    for (size_t K = 0; K != Kinds.size(); ++K) {
      Metrics M = Results[I * Kinds.size() + K].value();
      std::printf("%-12s %-10s %8.1f %8.1f %10llu %7u %9u %7u %9u %8.2f\n",
                  M.App.c_str(), M.Analysis.c_str(), M.AvgObjsPerVar,
                  M.AvgObjsPerAppVar,
                  static_cast<unsigned long long>(M.CallGraphEdges),
                  M.ReachableMethodsTotal, M.AppPolyVCalls,
                  M.AppVirtualCallSites, M.AppMayFailCasts, M.ElapsedSeconds);
    }
    std::printf("\n");
  }
  return 0;
}
