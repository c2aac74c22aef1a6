//===- micro_snapshot.cpp - AOT snapshot cold-start microbenchmarks --------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Measures the point of the snapshot store (DESIGN.md §13): cold-starting a
// base program by reading the AOT store must beat running the builders —
// the Java-library model, framework stubs, finalization, and base-fact
// extraction — by a wide margin, for every collection model. The store is
// written once into a temp directory at startup, so the load benchmark
// exercises exactly the `AnalysisSession` cold-start path: read, validate,
// decode.
//
// Besides the google-benchmark timings, `main` asserts a >= 5x min-of-N
// speedup per model and exits non-zero otherwise, so the bench-smoke CI
// job enforces the cold-start win instead of merely charting it.
//
//===----------------------------------------------------------------------===//

#include "snapshot/Snapshot.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace jackee;

namespace {

constexpr javalib::CollectionModel Models[] = {
    javalib::CollectionModel::OriginalJdk8,
    javalib::CollectionModel::OriginalNoTreeNodes,
    javalib::CollectionModel::SoundModulo,
};

std::string StoreDir; // populated by main before benchmarks run

void BM_ColdStartBuilders(benchmark::State &State) {
  const javalib::CollectionModel Model = Models[State.range(0)];
  for (auto _ : State) {
    snapshot::BaseProgram B = snapshot::buildBase(Model);
    benchmark::DoNotOptimize(B.Base.get());
  }
  State.SetLabel(snapshot::modelToken(Model));
}
BENCHMARK(BM_ColdStartBuilders)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

void BM_ColdStartSnapshotLoad(benchmark::State &State) {
  const javalib::CollectionModel Model = Models[State.range(0)];
  uint64_t Bytes = 0;
  for (auto _ : State) {
    snapshot::LoadResult R = snapshot::loadFromDir(StoreDir, Model);
    if (!R.ok()) {
      State.SkipWithError(R.Warning.c_str());
      return;
    }
    Bytes = R.Bytes;
    benchmark::DoNotOptimize(R.Data.get());
  }
  State.counters["store_bytes"] = static_cast<double>(Bytes);
  State.SetLabel(snapshot::modelToken(Model));
}
BENCHMARK(BM_ColdStartSnapshotLoad)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

/// Direct wall-clock check, independent of the benchmark harness: per
/// model, min-of-N builder cold start vs min-of-N store cold start.
int assertSnapshotSpeedup() {
  using Clock = std::chrono::steady_clock;
  constexpr int Runs = 7;
  constexpr double Budget = 5.0;

  int RC = 0;
  for (javalib::CollectionModel Model : Models) {
    double BestBuild = -1, BestLoad = -1;
    for (int I = 0; I != Runs; ++I) {
      auto Start = Clock::now();
      snapshot::BaseProgram B = snapshot::buildBase(Model);
      double Seconds =
          std::chrono::duration<double>(Clock::now() - Start).count();
      benchmark::DoNotOptimize(B.Base.get());
      if (BestBuild < 0 || Seconds < BestBuild)
        BestBuild = Seconds;
    }
    for (int I = 0; I != Runs; ++I) {
      auto Start = Clock::now();
      snapshot::LoadResult R = snapshot::loadFromDir(StoreDir, Model);
      double Seconds =
          std::chrono::duration<double>(Clock::now() - Start).count();
      if (!R.ok()) {
        std::fprintf(stderr, "load failed: %s\n", R.Warning.c_str());
        return 1;
      }
      benchmark::DoNotOptimize(R.Data.get());
      if (BestLoad < 0 || Seconds < BestLoad)
        BestLoad = Seconds;
    }
    double Speedup = BestLoad > 0 ? BestBuild / BestLoad : 0;
    std::printf("cold-start[%s]: build=%.0fus load=%.0fus speedup=%.1fx "
                "(budget %.0fx)\n",
                snapshot::modelToken(Model), BestBuild * 1e6, BestLoad * 1e6,
                Speedup, Budget);
    if (Speedup < Budget) {
      std::fprintf(stderr,
                   "FAIL: %s snapshot load is only %.1fx faster than the "
                   "builders (budget: %.0fx)\n",
                   snapshot::modelToken(Model), Speedup, Budget);
      RC = 1;
    }
  }
  return RC;
}

} // namespace

int main(int argc, char **argv) {
  char Buf[] = "/tmp/jackee-micro-snapshot-XXXXXX";
  const char *Dir = ::mkdtemp(Buf);
  if (!Dir) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  StoreDir = Dir;
  for (javalib::CollectionModel Model : Models) {
    snapshot::BaseProgram B = snapshot::buildBase(Model);
    if (std::string Err = snapshot::saveToDir(StoreDir, B, Model);
        !Err.empty()) {
      std::fprintf(stderr, "snapshot save failed: %s\n", Err.c_str());
      return 1;
    }
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  int RC = assertSnapshotSpeedup();
  std::error_code EC;
  std::filesystem::remove_all(StoreDir, EC);
  return RC;
}
