//===- micro_provenance.cpp - Provenance overhead microbenchmarks ----------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Measures what derivation recording costs — and, just as importantly, what
// it costs when it is *off*. The disabled configuration runs the exact same
// evaluation with no observer attached; the contract (Evaluator.h) is that
// the hot insert path then differs only by untaken pointer tests, so
// `recording:0` must be indistinguishable from the pre-provenance engine
// and `recording:1` bounds the opt-in overhead (EXPERIMENTS.md tracks
// both). `explain` latency on a deep chain is measured separately.
//
//===----------------------------------------------------------------------===//

#include "datalog/Database.h"
#include "datalog/Evaluator.h"
#include "datalog/Parser.h"
#include "provenance/Explain.h"
#include "provenance/Provenance.h"

#include <benchmark/benchmark.h>

using namespace jackee;
using namespace jackee::datalog;

namespace {

const char *TC_RULES = ".decl edge(a: symbol, b: symbol)\n"
                       ".decl path(a: symbol, b: symbol)\n"
                       "path(x, y) :- edge(x, y).\n"
                       "path(x, z) :- path(x, y), edge(y, z).\n";

/// Wide seeded random graph: large per-round deltas, many duplicate
/// derivations — the worst case for candidate recording.
void loadWideGraph(Database &DB, int64_t Nodes) {
  uint64_t Rng = 0x9e3779b97f4a7c15ull;
  auto next = [&Rng] {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  };
  for (int64_t I = 0; I != Nodes * 4; ++I)
    DB.insertFact("edge", {"n" + std::to_string(next() % Nodes),
                           "n" + std::to_string(next() % Nodes)});
}

} // namespace

/// Transitive closure with recording off vs on. Compare `recording:0` here
/// against `BM_TransitiveClosureWide` in micro_datalog to confirm the
/// no-observer path is unchanged.
static void BM_TCProvenance(benchmark::State &State) {
  const int64_t Nodes = State.range(0);
  const bool Recording = State.range(1) != 0;
  uint64_t Recorded = 0;
  for (auto _ : State) {
    State.PauseTiming();
    SymbolTable Symbols;
    Database DB(Symbols);
    RuleSet Rules;
    parseRules(DB, Rules, TC_RULES, "bench");
    loadWideGraph(DB, Nodes);
    Evaluator Eval(DB, Rules);
    provenance::ProvenanceRecorder Recorder(DB, Rules);
    if (Recording) {
      Recorder.beginEpoch("base");
      Eval.setObserver(&Recorder);
    }
    State.ResumeTiming();
    Eval.run();
    benchmark::DoNotOptimize(DB.relation(DB.find("path")).size());
    State.PauseTiming();
    Recorded = Recorder.stats().TuplesRecorded;
    State.ResumeTiming();
  }
  State.counters["recorded"] = static_cast<double>(Recorded);
}
BENCHMARK(BM_TCProvenance)
    ->ArgsProduct({{256, 512}, {0, 1}})
    ->ArgNames({"nodes", "recording"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// explain() on the deepest tuple of a long chain: tree materialization +
/// text rendering, depth-capped per ExplainOptions defaults.
static void BM_ExplainChain(benchmark::State &State) {
  SymbolTable Symbols;
  Database DB(Symbols);
  RuleSet Rules;
  parseRules(DB, Rules, TC_RULES, "bench");
  const int64_t Nodes = State.range(0);
  for (int64_t I = 0; I + 1 < Nodes; ++I)
    DB.insertFact("edge",
                  {"n" + std::to_string(I), "n" + std::to_string(I + 1)});
  Evaluator Eval(DB, Rules);
  provenance::ProvenanceRecorder Recorder(DB, Rules);
  Recorder.beginEpoch("base");
  Eval.setObserver(&Recorder);
  Eval.run();

  provenance::Explainer Ex(DB, Rules, Recorder);
  const Relation &Path = DB.relation(DB.find("path"));
  const uint32_t Last = Path.size() - 1;
  for (auto _ : State) {
    provenance::DerivationNode Tree =
        Ex.explain(DB.find("path"), Last);
    benchmark::DoNotOptimize(
        provenance::Explainer::renderText(Tree).size());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ExplainChain)->Arg(64)->Arg(256);

BENCHMARK_MAIN();
