//===- fig5_scale.cpp - Figure 5's factor as the apps grow -----------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Runs alfresco and dotCMS at 1x, 2x and 4x their size under 2objH and
// mod-2objH. A scaled app multiplies every count field of its
// `SynthProfile`, but not `HelperDepth` or `WiredServicePercent`.
//
// Each cell runs in a process of its own, so the peak RSS it reports is
// the cell's: the binary re-runs itself as `fig5_scale --cell APP SCALE
// KIND` (enum indexes), and the child prints its own
// `getrusage(RUSAGE_SELF)` peak. `RUSAGE_CHILDREN` would keep the maximum
// over all children.
//
// Per cell: solve seconds (`Metrics::ElapsedSeconds`), peak RSS, bytes of
// peak RSS per var-points-to tuple, and the java.util share of the
// tuples. Per (app, scale): the wall-clock factor 2objH / mod-2objH and
// the tuple factor, the paper's own attribution basis.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "synth/SynthApp.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace jackee;
using namespace jackee::core;
using namespace jackee::synth;

namespace {

constexpr AnalysisKind Kinds[] = {AnalysisKind::TwoObjH,
                                  AnalysisKind::Mod2ObjH};

SynthProfile scaled(const SynthProfile &Base, uint32_t Scale) {
  SynthProfile Prof = Base;
  for (uint32_t *Count :
       {&Prof.Entities, &Prof.Repositories, &Prof.Services, &Prof.Controllers,
        &Prof.Servlets, &Prof.RestResources, &Prof.StrutsActions,
        &Prof.XmlComponents, &Prof.Filters, &Prof.DeadClasses})
    *Count *= Scale;
  return Prof;
}

struct Cell {
  double Seconds = 0;
  unsigned long long Tuples = 0, JavaUtilTuples = 0;
  long PeakRssKb = 0; ///< `ru_maxrss`, in KB on Linux
};

/// The child: runs one cell and prints it as one line.
int runCell(BenchApp App, uint32_t Scale, AnalysisKind Kind) {
  const SynthProfile Prof = scaled(profileFor(App), Scale);
  Metrics M = runAnalysis(applicationForProfile(Prof), Kind).value();
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  std::printf("%.6f %llu %llu %ld\n", M.ElapsedSeconds,
              static_cast<unsigned long long>(M.VptTuplesTotal),
              static_cast<unsigned long long>(M.VptTuplesJavaUtil),
              Usage.ru_maxrss);
  return 0;
}

Cell runChild(const char *Self, BenchApp App, uint32_t Scale,
              AnalysisKind Kind) {
  std::string Cmd = std::string("'") + Self + "' --cell " +
                    std::to_string(static_cast<int>(App)) + " " +
                    std::to_string(Scale) + " " +
                    std::to_string(static_cast<int>(Kind));
  Cell C;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  bool Read = Pipe && std::fscanf(Pipe, "%lf %llu %llu %ld", &C.Seconds,
                                  &C.Tuples, &C.JavaUtilTuples,
                                  &C.PeakRssKb) == 4;
  if (!Pipe || pclose(Pipe) != 0 || !Read) {
    std::fprintf(stderr, "fig5_scale: cell failed: %s\n", Cmd.c_str());
    std::exit(1);
  }
  return C;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 5 && std::strcmp(Argv[1], "--cell") == 0) {
    int App = std::atoi(Argv[2]), Scale = std::atoi(Argv[3]),
        Kind = std::atoi(Argv[4]);
    if (App < 0 || App > static_cast<int>(BenchApp::WebGoat) || Scale < 1 ||
        Kind < 0 || Kind > static_cast<int>(AnalysisKind::Mod2ObjH)) {
      std::fprintf(stderr, "usage: fig5_scale [--cell APP SCALE KIND]\n");
      return 2;
    }
    return runCell(static_cast<BenchApp>(App), static_cast<uint32_t>(Scale),
                   static_cast<AnalysisKind>(Kind));
  }

  std::printf("=== Figure 5 at scale: 2objH vs mod-2objH, one cell per "
              "process ===\n\n");
  std::printf("%-10s %5s %-10s %9s %12s %10s %9s %9s\n", "benchmark",
              "scale", "analysis", "time(s)", "vpt-tuples", "j.u.share",
              "rss(MB)", "B/tuple");
  for (BenchApp App : {BenchApp::Alfresco, BenchApp::DotCMS}) {
    for (uint32_t Scale : {1u, 2u, 4u}) {
      Cell Cells[2];
      for (int K = 0; K != 2; ++K) {
        const Cell &C = Cells[K] = runChild(Argv[0], App, Scale, Kinds[K]);
        std::printf("%-10s %4ux %-10s %9.3f %12llu %9.1f%% %9.1f %9.1f\n",
                    profileFor(App).Name, Scale, analysisName(Kinds[K]),
                    C.Seconds, C.Tuples,
                    100.0 * C.JavaUtilTuples / C.Tuples,
                    C.PeakRssKb / 1024.0, C.PeakRssKb * 1024.0 / C.Tuples);
      }
      std::printf("%-10s %4ux factor: time %.1fx, tuples %.1fx\n\n",
                  profileFor(App).Name, Scale,
                  Cells[0].Seconds / Cells[1].Seconds,
                  static_cast<double>(Cells[0].Tuples) / Cells[1].Tuples);
    }
  }
  return 0;
}
