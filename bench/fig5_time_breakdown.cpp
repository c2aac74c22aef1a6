//===- fig5_time_breakdown.cpp - Reproduces the paper's Figure 5 -----------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Analysis time for each benchmark under ci, 2objH and mod-2objH, split
// into java.util vs non-java.util cost. As in the paper, the split is
// heuristic: time is attributed proportionally to the final cumulative
// context-sensitive var-points-to set sizes per declaring package.
// Expected shape: the java.util share skyrockets between ci and 2objH
// (the paper reports ~70% for WebGoat vs under 20% for desktop apps), and
// mod-2objH removes most of it (average ~6x total speedup over 2objH).
//
// The matrix runs through a shared `core::AnalysisSession` (cached
// snapshots) at one job, so no cell's time includes contention with
// another's. Speedups compare per-cell solve times.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "synth/SynthApp.h"

#include <cstdio>
#include <vector>

using namespace jackee;
using namespace jackee::core;

int main() {
  std::printf("=== Figure 5: analysis time, java.util vs rest ===\n\n");
  std::printf("%-12s %-10s %9s %12s %12s %10s %12s\n", "benchmark",
              "analysis", "time(s)", "j.u.time(s)", "rest(s)", "j.u.share",
              "vpt-tuples");

  std::vector<Application> Apps = synth::allBenchmarks();
  std::vector<AnalysisKind> Kinds = {AnalysisKind::CI, AnalysisKind::TwoObjH,
                                     AnalysisKind::Mod2ObjH};
  SessionOptions SO;
  SO.Jobs = 1;
  AnalysisSession Session(SO);
  std::vector<AnalysisResult> Results = Session.runMatrix(Apps, Kinds);

  double SpeedupSum = 0;
  int SpeedupCount = 0;
  for (size_t I = 0; I != Apps.size(); ++I) {
    double Time2objH = 0;
    for (size_t K = 0; K != Kinds.size(); ++K) {
      Metrics M = Results[I * Kinds.size() + K].value();
      std::printf("%-12s %-10s %9.3f %12.3f %12.3f %9.1f%% %12llu\n",
                  M.App.c_str(), M.Analysis.c_str(), M.ElapsedSeconds,
                  M.javaUtilSeconds(), M.nonJavaUtilSeconds(),
                  100.0 * M.javaUtilShare(),
                  static_cast<unsigned long long>(M.VptTuplesTotal));
      if (Kinds[K] == AnalysisKind::TwoObjH)
        Time2objH = M.ElapsedSeconds;
      if (Kinds[K] == AnalysisKind::Mod2ObjH && M.ElapsedSeconds > 0) {
        double Speedup = Time2objH / M.ElapsedSeconds;
        std::printf("%-12s %-10s speedup over 2objH: %.1fx\n",
                    Apps[I].Name.c_str(), "", Speedup);
        SpeedupSum += Speedup;
        ++SpeedupCount;
      }
    }
    std::printf("\n");
  }
  if (SpeedupCount)
    std::printf("average mod-2objH speedup over 2objH: %.1fx "
                "(paper: ~5.9x, peak 15.1x)\n\n",
                SpeedupSum / SpeedupCount);

  // Section 4 in-text reference: a desktop-style app keeps the java.util
  // share low even under 2objH (DaCapo: typically under 20%).
  Application Desktop = synth::dacapoLikeApp();
  Metrics Ref = Session.run(Desktop, AnalysisKind::TwoObjH).value();
  std::printf("reference: %s under 2objH java.util share %.1f%% "
              "(paper: DaCapo-style apps < 20%%)\n",
              Desktop.Name.c_str(), 100.0 * Ref.javaUtilShare());
  return 0;
}
