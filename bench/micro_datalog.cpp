//===- micro_datalog.cpp - Datalog engine microbenchmarks ------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// google-benchmark suite for the Soufflé-substitute engine: tuple
// insertion/dedup, indexed lookup, semi-naive transitive closure, and rule
// parsing. These are the substrate costs under every framework-model
// evaluation round.
//
//===----------------------------------------------------------------------===//

#include "datalog/Database.h"
#include "datalog/Evaluator.h"
#include "datalog/Parser.h"

#include <benchmark/benchmark.h>

using namespace jackee;
using namespace jackee::datalog;

static void BM_RelationInsert(benchmark::State &State) {
  for (auto _ : State) {
    SymbolTable Symbols;
    Database DB(Symbols);
    DB.declare("edge", 2);
    Relation &R = DB.relation(DB.find("edge"));
    for (int64_t I = 0; I != State.range(0); ++I) {
      Symbol T[2] = {Symbols.intern("n" + std::to_string(I)),
                     Symbols.intern("n" + std::to_string(I + 1))};
      R.insert(T);
    }
    benchmark::DoNotOptimize(R.size());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_RelationInsert)->Arg(1000)->Arg(10000);

static void BM_RelationDedup(benchmark::State &State) {
  SymbolTable Symbols;
  Database DB(Symbols);
  DB.declare("edge", 2);
  Relation &R = DB.relation(DB.find("edge"));
  Symbol A = Symbols.intern("a"), B = Symbols.intern("b");
  Symbol T[2] = {A, B};
  R.insert(T);
  for (auto _ : State)
    benchmark::DoNotOptimize(R.insert(T)); // always a duplicate
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RelationDedup);

static void BM_IndexedLookup(benchmark::State &State) {
  SymbolTable Symbols;
  Database DB(Symbols);
  DB.declare("edge", 2);
  Relation &R = DB.relation(DB.find("edge"));
  for (int I = 0; I != 10000; ++I) {
    Symbol T[2] = {Symbols.intern("s" + std::to_string(I % 100)),
                   Symbols.intern("t" + std::to_string(I))};
    R.insert(T);
  }
  uint32_t Cols[1] = {0};
  Symbol Key[1] = {Symbols.intern("s42")};
  for (auto _ : State)
    benchmark::DoNotOptimize(R.lookup(Cols, Key).size());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_IndexedLookup);

static void BM_TransitiveClosure(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    SymbolTable Symbols;
    Database DB(Symbols);
    RuleSet Rules;
    parseRules(DB, Rules,
               ".decl edge(a: symbol, b: symbol)\n"
               ".decl path(a: symbol, b: symbol)\n"
               "path(x, y) :- edge(x, y).\n"
               "path(x, z) :- path(x, y), edge(y, z).\n",
               "bench");
    // Chain graph of N nodes.
    for (int64_t I = 0; I + 1 < State.range(0); ++I)
      DB.insertFact("edge", {"n" + std::to_string(I),
                             "n" + std::to_string(I + 1)});
    Evaluator Eval(DB, Rules);
    State.ResumeTiming();
    Eval.run();
    benchmark::DoNotOptimize(
        DB.relation(DB.find("path")).size());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_TransitiveClosure)->Arg(50)->Arg(100)->Arg(200)->Complexity();

/// Transitive closure over a wide seeded random graph. The chain graph
/// above derives one new tuple per round; this one has few rounds with
/// large deltas and many joins per pass.
static void BM_TransitiveClosureWide(benchmark::State &State) {
  const int64_t Nodes = State.range(0);
  uint64_t Tuples = 0;
  for (auto _ : State) {
    State.PauseTiming();
    SymbolTable Symbols;
    Database DB(Symbols);
    RuleSet Rules;
    parseRules(DB, Rules,
               ".decl edge(a: symbol, b: symbol)\n"
               ".decl path(a: symbol, b: symbol)\n"
               "path(x, y) :- edge(x, y).\n"
               "path(x, z) :- path(x, y), edge(y, z).\n",
               "bench");
    // Wide random graph, deterministic seed: ~4 edges per node.
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
    Evaluator Eval(DB, Rules);
    State.ResumeTiming();
    Eval.run();
    benchmark::DoNotOptimize(DB.relation(DB.find("path")).size());
    Tuples = Eval.stats().TuplesDerived;
  }
  State.counters["tuples"] = static_cast<double>(Tuples);
}
BENCHMARK(BM_TransitiveClosureWide)
    ->Arg(256)
    ->Arg(512)
    ->ArgNames({"nodes"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Join-plan A/B probe: a three-way join spelled worst-first (the huge
/// relation drives textually, the tiny filter comes last). The textual
/// plan enumerates big × mid before ever consulting tiny; the greedy plan
/// starts from tiny and probes the others through bound keys. Arg(1)
/// selects the mode (0 = textual, 1 = greedy); results are identical, the
/// time difference is the planner's win (see EXPERIMENTS.md).
static void BM_JoinOrderAdversarial(benchmark::State &State) {
  const int64_t BigFacts = State.range(0);
  const PlanMode Mode =
      State.range(1) ? PlanMode::Greedy : PlanMode::Textual;
  uint64_t Result = 0;
  for (auto _ : State) {
    State.PauseTiming();
    SymbolTable Symbols;
    Database DB(Symbols);
    RuleSet Rules;
    parseRules(DB, Rules,
               ".decl big(a: symbol, b: symbol)\n"
               ".decl mid(b: symbol, c: symbol)\n"
               ".decl tiny(c: symbol)\n"
               ".decl q(a: symbol, c: symbol)\n"
               "q(a, c) :- big(a, b), mid(b, c), tiny(c).\n",
               "bench");
    for (int64_t I = 0; I != BigFacts; ++I)
      DB.insertFact("big", {"a" + std::to_string(I % 997),
                            "b" + std::to_string(I % 61)});
    for (int64_t I = 0; I != 600; ++I)
      DB.insertFact("mid",
                    {"b" + std::to_string(I % 61), "c" + std::to_string(I)});
    for (int64_t I = 0; I != 4; ++I)
      DB.insertFact("tiny", {"c" + std::to_string(I)});
    Evaluator Eval(DB, Rules, Mode);
    State.ResumeTiming();
    Eval.run();
    Result = DB.relation(DB.find("q")).size();
    benchmark::DoNotOptimize(Result);
  }
  State.counters["q_tuples"] = static_cast<double>(Result);
}
BENCHMARK(BM_JoinOrderAdversarial)
    ->ArgsProduct({{20000, 80000}, {0, 1}})
    ->ArgNames({"big", "greedy"})
    ->Unit(benchmark::kMillisecond);

static void BM_ParseFrameworkScaleRules(benchmark::State &State) {
  // A rule text comparable to one framework model.
  std::string Text = ".decl ConcreteApplicationClass(c: symbol)\n"
                     ".decl SubtypeOf(a: symbol, b: symbol)\n"
                     ".decl Method_DeclaringType(m: symbol, c: symbol)\n"
                     ".decl Method_Annotation(m: symbol, a: symbol)\n";
  for (int I = 0; I != 20; ++I) {
    std::string N = std::to_string(I);
    Text += ".decl Out" + N + "(c: symbol)\n";
    Text += "Out" + N + "(c) :- ConcreteApplicationClass(c), "
            "(SubtypeOf(c, \"lib.Base" + N + "\") ; "
            "SubtypeOf(c, \"lib.Alt" + N + "\")).\n";
    Text += "Out" + N + "(c) :- Method_DeclaringType(m, c), "
            "Method_Annotation(m, \"lib.@Ann" + N + "\"), c != \"x\".\n";
  }
  for (auto _ : State) {
    SymbolTable Symbols;
    Database DB(Symbols);
    RuleSet Rules;
    ParserResult R = parseRules(DB, Rules, Text, "bench");
    benchmark::DoNotOptimize(R.RulesAdded);
  }
  State.SetItemsProcessed(State.iterations() * 60);
}
BENCHMARK(BM_ParseFrameworkScaleRules);

BENCHMARK_MAIN();
