//===- Evaluator.cpp ------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "datalog/Evaluator.h"

#include <algorithm>
#include <chrono>

using namespace jackee;
using namespace jackee::datalog;

namespace {

/// Tarjan's SCC algorithm over the predicate "feeds" graph (edge B -> H for
/// every rule H :- ..., B, ...). Emits SCCs sinks-first; reversing gives a
/// valid stratum order (sources, i.e. pure-input predicates, first).
class SccFinder {
public:
  explicit SccFinder(const std::vector<std::vector<uint32_t>> &Successors)
      : Successors(Successors), State(Successors.size()) {}

  /// \returns the SCC id per node; SCC ids are already in topological order
  /// (an SCC only depends on lower-numbered SCCs).
  std::vector<uint32_t> run() {
    for (uint32_t N = 0; N != Successors.size(); ++N)
      if (State[N].Index == Unvisited)
        strongConnect(N);
    // Tarjan emitted SCCs in reverse topological order; flip the numbering.
    uint32_t Total = SccCounter;
    for (auto &Info : State)
      Info.Scc = Total - 1 - Info.Scc;
    std::vector<uint32_t> Result(State.size());
    for (uint32_t N = 0; N != State.size(); ++N)
      Result[N] = State[N].Scc;
    SccCount = Total;
    return Result;
  }

  uint32_t sccCount() const { return SccCount; }

private:
  static constexpr uint32_t Unvisited = ~uint32_t(0);

  struct NodeState {
    uint32_t Index = Unvisited;
    uint32_t LowLink = 0;
    uint32_t Scc = 0;
    bool OnStack = false;
  };

  // Iterative Tarjan to avoid deep recursion on long rule chains.
  void strongConnect(uint32_t Root) {
    struct Frame {
      uint32_t Node;
      size_t NextSucc;
    };
    std::vector<Frame> CallStack{{Root, 0}};
    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      NodeState &NS = State[F.Node];
      if (F.NextSucc == 0) {
        NS.Index = NS.LowLink = NextIndex++;
        NS.OnStack = true;
        Stack.push_back(F.Node);
      }
      bool Descended = false;
      while (F.NextSucc < Successors[F.Node].size()) {
        uint32_t Succ = Successors[F.Node][F.NextSucc++];
        if (State[Succ].Index == Unvisited) {
          CallStack.push_back({Succ, 0});
          Descended = true;
          break;
        }
        if (State[Succ].OnStack)
          NS.LowLink = std::min(NS.LowLink, State[Succ].Index);
      }
      if (Descended)
        continue;
      if (NS.LowLink == NS.Index) {
        while (true) {
          uint32_t Member = Stack.back();
          Stack.pop_back();
          State[Member].OnStack = false;
          State[Member].Scc = SccCounter;
          if (Member == F.Node)
            break;
        }
        ++SccCounter;
      }
      uint32_t Done = F.Node;
      CallStack.pop_back();
      if (!CallStack.empty()) {
        NodeState &Parent = State[CallStack.back().Node];
        Parent.LowLink = std::min(Parent.LowLink, State[Done].LowLink);
      }
    }
  }

  const std::vector<std::vector<uint32_t>> &Successors;
  std::vector<NodeState> State;
  std::vector<uint32_t> Stack;
  uint32_t NextIndex = 0;
  uint32_t SccCounter = 0;
  uint32_t SccCount = 0;
};

} // namespace

Evaluator::Evaluator(Database &DB, const RuleSet &Rules)
    : DB(DB), Rules(Rules) {
  stratify();
}

void Evaluator::stratify() {
  uint32_t RelCount = static_cast<uint32_t>(DB.relationCount());
  std::vector<std::vector<uint32_t>> Feeds(RelCount);
  for (const Rule &R : Rules.rules())
    for (const Atom &A : R.Body)
      Feeds[A.Rel.index()].push_back(R.Head.Rel.index());

  SccFinder Finder(Feeds);
  std::vector<uint32_t> SccOf = Finder.run();
  uint32_t SccCount = Finder.sccCount();

  // Negation must not stay inside its own SCC.
  for (const Rule &R : Rules.rules())
    for (const Atom &A : R.Body)
      if (A.Negated && SccOf[A.Rel.index()] == SccOf[R.Head.Rel.index()]) {
        StratificationError =
            "unstratifiable negation on relation '" +
            DB.relation(A.Rel).name() + "' (rule " + R.Origin + ")";
        return;
      }

  Strata.assign(SccCount, Stratum());
  for (uint32_t S = 0; S != SccCount; ++S)
    Strata[S].IsMember.assign(RelCount, false);
  for (uint32_t Rel = 0; Rel != RelCount; ++Rel) {
    Strata[SccOf[Rel]].MemberRels.push_back(Rel);
    Strata[SccOf[Rel]].IsMember[Rel] = true;
  }
  for (uint32_t I = 0, E = static_cast<uint32_t>(Rules.rules().size());
       I != E; ++I)
    Strata[SccOf[Rules.rules()[I].Head.Rel.index()]].RuleIndexes.push_back(I);

  // Drop empty strata (relations with no rules form singleton SCCs).
  std::vector<Stratum> Kept;
  for (Stratum &S : Strata)
    if (!S.RuleIndexes.empty())
      Kept.push_back(std::move(S));
  Strata = std::move(Kept);
  EvalStats.StratumCount = static_cast<uint32_t>(Strata.size());
  EvalStats.Strata.resize(Strata.size());
  for (size_t I = 0; I != Strata.size(); ++I)
    EvalStats.Strata[I].Rules =
        static_cast<uint32_t>(Strata[I].RuleIndexes.size());
}

void Evaluator::enableRuleProfiling() { Profiling = true; }

void Evaluator::run() {
  assert(StratificationError.empty() && "running an unstratifiable program");
  if (Profiling && RuleProfiles.size() != Rules.rules().size()) {
    // Sized per run, not at enable time: the bean-wiring loop can extend
    // the rule set between runs and re-runs pick the new rules up.
    RuleProfiles.resize(Rules.rules().size());
    RuleLastRound.resize(Rules.rules().size(), 0);
  }
  for (size_t I = 0; I != Strata.size(); ++I) {
    StratumStats &SS = EvalStats.Strata[I];
    observe::Span StratumSpan(Trace, "stratum", "datalog");
    StratumSpan.arg("index", I);
    StratumSpan.arg("rules", SS.Rules);
    uint64_t TuplesBefore = SS.TuplesDerived;
    uint32_t RoundsBefore = SS.Rounds;
    auto Start = std::chrono::steady_clock::now();
    runStratum(Strata[I], SS);
    SS.WallSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
    StratumSpan.arg("rounds", SS.Rounds - RoundsBefore);
    StratumSpan.arg("tuples", SS.TuplesDerived - TuplesBefore);
    if (Registry && SS.WallSeconds > 0)
      Registry->set("datalog.stratum" + std::to_string(I) +
                        ".tuples_per_sec",
                    static_cast<double>(SS.TuplesDerived) / SS.WallSeconds);
  }
}

void Evaluator::appendPassTasks(std::vector<Task> &Tasks,
                                std::vector<JoinPlan> &Plans,
                                uint32_t RuleIdx, int DeltaAtom,
                                uint32_t DeltaFrom, uint32_t DeltaTo,
                                const std::vector<uint32_t> &Sizes) {
  const Rule &R = Rules.rules()[RuleIdx];
  // A pass that cannot match emits no tasks at all: an empty delta range,
  // or any positive atom whose snapshot is empty, makes the join empty by
  // construction. The criterion looks only at the body and the snapshot —
  // never at the chosen plan — so the pass set (and with it the
  // RuleEvaluations counters and the "passes" arg of trace round spans)
  // does not depend on the join order.
  if (DeltaAtom >= 0 && DeltaFrom == DeltaTo)
    return;
  for (const Atom &A : R.Body)
    if (!A.Negated && Sizes[A.Rel.index()] == 0)
      return;

  uint32_t PlanIdx = static_cast<uint32_t>(Plans.size());
  Plans.push_back(makeJoinPlan(
      R, DeltaAtom,
      {std::span<const uint32_t>(Sizes.data(), Sizes.size()), &DB}));
  const JoinPlan &Plan = Plans.back();
  if (Profiling)
    RuleProfiles[RuleIdx].EstimatedFanout += Plan.EstimatedFanout;

  if (Plan.PositiveOrder.empty()) {
    // Fact rule: nothing to drive over.
    Tasks.push_back({RuleIdx, DeltaAtom, PlanIdx, 0, 0, /*HasDrive=*/false});
    return;
  }

  // The plan's first atom drives: the delta chunk for a delta pass, the
  // full snapshot for a seed pass. Nonempty by the guards above.
  uint32_t DriveFrom = 0;
  uint32_t DriveTo = Sizes[R.Body[Plan.PositiveOrder[0]].Rel.index()];
  if (DeltaAtom >= 0) {
    DriveFrom = DeltaFrom;
    DriveTo = DeltaTo;
  }
  Tasks.push_back(
      {RuleIdx, DeltaAtom, PlanIdx, DriveFrom, DriveTo, /*HasDrive=*/true});
}

void Evaluator::runStratum(const Stratum &S, StratumStats &SS) {
  uint32_t RelCount = static_cast<uint32_t>(DB.relationCount());
  std::vector<uint32_t> Limit(RelCount), DeltaBegin(RelCount),
      DeltaEnd(RelCount);

  auto snapshotSizes = [&](std::vector<uint32_t> &Out) {
    for (uint32_t Rel = 0; Rel != RelCount; ++Rel)
      Out[Rel] = DB.relation(RelationId(Rel)).size();
  };

  std::vector<Task> Tasks;
  std::vector<JoinPlan> Plans;

  // Per-round planner telemetry: how far the chosen orders and guard slots
  // moved off body order, and what fanout the cost model predicted.
  auto recordPlanMetrics = [&]() {
    if (!Registry || Plans.empty())
      return;
    double Reorder = 0, Hoist = 0, Estimated = 0;
    for (const JoinPlan &P : Plans) {
      Reorder += P.ReorderDistance;
      Hoist += P.GuardHoistDepth;
      Estimated += P.EstimatedFanout;
    }
    Registry->observe("datalog.plan.reorder_distance", Reorder);
    Registry->observe("datalog.plan.guard_hoist_depth", Hoist);
    Registry->observe("datalog.plan.estimated_fanout", Estimated);
  };

  // Naive seed round: everything currently present participates; the plan's
  // first positive atom drives (plans are built per round against the live
  // snapshot sizes, so the planner sees current cardinalities).
  snapshotSizes(Limit);
  std::vector<uint32_t> SeedStart = Limit;
  for (uint32_t RuleIdx : S.RuleIndexes)
    appendPassTasks(Tasks, Plans, RuleIdx, /*DeltaAtom=*/-1, 0, 0, Limit);
  ++SS.Rounds;
  {
    observe::Span RoundSpan(Trace, "round", "datalog");
    RoundSpan.arg("round", SS.Rounds);
    RoundSpan.arg("kind", "seed");
    uint64_t TuplesBefore = SS.TuplesDerived;
    uint64_t PassesBefore = SS.RuleEvaluations;
    executeRound(Tasks, Plans, Limit, SS);
    recordPlanMetrics();
    RoundSpan.arg("passes", SS.RuleEvaluations - PassesBefore);
    RoundSpan.arg("tuples", SS.TuplesDerived - TuplesBefore);
    if (Registry)
      Registry->observe("datalog.round_delta_tuples",
                        static_cast<double>(SS.TuplesDerived - TuplesBefore));
  }

  // Delta rounds.
  DeltaBegin = SeedStart;
  snapshotSizes(DeltaEnd);
  while (true) {
    bool AnyDelta = false;
    for (uint32_t Rel : S.MemberRels)
      if (DeltaBegin[Rel] != DeltaEnd[Rel])
        AnyDelta = true;
    if (!AnyDelta)
      break;

    Limit = DeltaEnd;
    Tasks.clear();
    Plans.clear();
    for (uint32_t RuleIdx : S.RuleIndexes) {
      const Rule &R = Rules.rules()[RuleIdx];
      for (int AtomIdx = 0; AtomIdx != static_cast<int>(R.Body.size());
           ++AtomIdx) {
        const Atom &A = R.Body[AtomIdx];
        if (A.Negated || !S.IsMember[A.Rel.index()])
          continue;
        if (DeltaBegin[A.Rel.index()] == DeltaEnd[A.Rel.index()])
          continue;
        appendPassTasks(Tasks, Plans, RuleIdx, AtomIdx,
                        DeltaBegin[A.Rel.index()], DeltaEnd[A.Rel.index()],
                        Limit);
      }
    }
    ++SS.Rounds;
    {
      observe::Span RoundSpan(Trace, "round", "datalog");
      RoundSpan.arg("round", SS.Rounds);
      RoundSpan.arg("kind", "delta");
      uint64_t TuplesBefore = SS.TuplesDerived;
      uint64_t PassesBefore = SS.RuleEvaluations;
      executeRound(Tasks, Plans, Limit, SS);
      recordPlanMetrics();
      RoundSpan.arg("passes", SS.RuleEvaluations - PassesBefore);
      RoundSpan.arg("tuples", SS.TuplesDerived - TuplesBefore);
      if (Registry)
        Registry->observe(
            "datalog.round_delta_tuples",
            static_cast<double>(SS.TuplesDerived - TuplesBefore));
    }

    DeltaBegin = DeltaEnd;
    snapshotSizes(DeltaEnd);
  }
}

void Evaluator::executeRound(const std::vector<Task> &Tasks,
                             const std::vector<JoinPlan> &Plans,
                             const std::vector<uint32_t> &Limit,
                             StratumStats &SS) {
  if (Tasks.empty())
    return;
  EvalStats.RuleEvaluations += Tasks.size();
  SS.RuleEvaluations += Tasks.size();

  if (Profiling) {
    // Per-rule pass and rounds-fired attribution: both derive from the
    // pass set, which appendPassTasks keeps independent of the plan.
    ++RoundSerial;
    for (const Task &T : Tasks) {
      RuleProfile &RP = RuleProfiles[T.RuleIdx];
      ++RP.Passes;
      if (RuleLastRound[T.RuleIdx] != RoundSerial) {
        RuleLastRound[T.RuleIdx] = RoundSerial;
        ++RP.RoundsFired;
      }
    }
  }

  uint64_t Before = EvalStats.TuplesDerived;
  for (const Task &T : Tasks) {
    if (Profiling) {
      auto T0 = std::chrono::steady_clock::now();
      evaluateRule(T.RuleIdx, Plans[T.PlanIdx], T.DeltaAtom, T.DriveFrom,
                   T.DriveTo, T.HasDrive, Limit);
      RuleProfiles[T.RuleIdx].WallSeconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        T0)
              .count();
    } else {
      evaluateRule(T.RuleIdx, Plans[T.PlanIdx], T.DeltaAtom, T.DriveFrom,
                   T.DriveTo, T.HasDrive, Limit);
    }
  }
  SS.TuplesDerived += EvalStats.TuplesDerived - Before;

  // The round's full-match total is the ground truth the planner's
  // estimated_fanout histogram is compared against; no join order can
  // change it (a match is a binding satisfying every atom and guard over
  // the round's snapshot, independent of enumeration order).
  if (Registry)
    Registry->observe("datalog.plan.actual_matches",
                      static_cast<double>(Scratch.Matches));
  Scratch.Matches = 0;
}

void Evaluator::evaluateRule(uint32_t RuleIdx, const JoinPlan &Plan,
                             int DeltaAtom, uint32_t DriveFrom,
                             uint32_t DriveTo, bool HasDrive,
                             const std::vector<uint32_t> &Limit) {
  const Rule &R = Rules.rules()[RuleIdx];
  JoinScratch &S = Scratch;
  // All join state lives in the scratch; buffers only grow, so
  // steady-state passes allocate nothing inside the join loops.
  if (S.Bindings.size() < R.VariableCount) {
    S.Bindings.resize(R.VariableCount);
    S.BoundFlags.resize(R.VariableCount);
  }
  std::fill(S.BoundFlags.begin(), S.BoundFlags.begin() + R.VariableCount, 0);
  S.Trail.clear();
  if (Observer && S.MatchIdx.size() < R.Body.size())
    S.MatchIdx.resize(R.Body.size());

  auto valueOf = [&](const Term &T) {
    return T.isConstant() ? T.Value : S.Bindings[T.VarIndex];
  };

  // Guards assigned to plan slot `K` (see JoinPlan): constraints first,
  // then negation probes, both in rule order — the same order the
  // historical post-join check used, just potentially earlier.
  auto passesGuards = [&](size_t K) -> bool {
    for (uint32_t CI : Plan.ConstraintsAt[K]) {
      const Constraint &C = R.Constraints[CI];
      bool Equal = valueOf(C.Lhs) == valueOf(C.Rhs);
      if (C.CompareKind == Constraint::Kind::Equal ? !Equal : Equal)
        return false;
    }
    for (uint32_t AtomIdx : Plan.NegationsAt[K]) {
      const Atom &A = R.Body[AtomIdx];
      S.Tuple.clear();
      for (const Term &T : A.Terms)
        S.Tuple.push_back(valueOf(T));
      if (DB.relation(A.Rel).contains(S.Tuple))
        return false;
    }
    return true;
  };

  // Provenance scratch (observer mode only): the tuple index each body atom
  // is currently matched against, and the witness refs of the match being
  // emitted — positive atoms in *body* order, so every join plan of the
  // same rule reports the same ref sequence.
  auto gatherRefs = [&]() -> std::span<const uint32_t> {
    S.Refs.clear();
    for (size_t I = 0; I != R.Body.size(); ++I)
      if (!R.Body[I].Negated)
        S.Refs.push_back(S.MatchIdx[I]);
    return S.Refs;
  };

  // Profiling: matches whose head tuple was absent at the round barrier —
  // exactly the provenance-candidate criterion, so the count does not
  // depend on the join order.
  uint64_t ProfDerived = 0;
  uint64_t MatchesAtStart = S.Matches;

  auto emitHead = [&]() {
    S.Tuple.clear();
    for (const Term &T : R.Head.Terms)
      S.Tuple.push_back(valueOf(T));
    Relation &Head = DB.relation(R.Head.Rel);
    if (Head.insert(S.Tuple)) {
      ++EvalStats.TuplesDerived;
      ++ProfDerived;
      if (Observer)
        Observer->onDerivation(R.Head.Rel.index(), Head.size() - 1, RuleIdx,
                               gatherRefs());
    } else if (Observer) {
      // Duplicate: still a provenance candidate if the tuple first appeared
      // *this* round (index at or past the round-barrier snapshot) — the
      // observer keeps the least candidate, making the recorded derivation
      // independent of rule execution order.
      uint32_t Existing = Head.find(S.Tuple);
      if (Existing != Relation::NoTuple &&
          Existing >= Limit[R.Head.Rel.index()]) {
        ++ProfDerived;
        Observer->onDerivation(R.Head.Rel.index(), Existing, RuleIdx,
                               gatherRefs());
      }
    } else if (Profiling) {
      // Same criterion without an observer; the extra find() only runs on
      // within-round duplicates, and only when profiling is on.
      uint32_t Existing = Head.find(S.Tuple);
      if (Existing != Relation::NoTuple &&
          Existing >= Limit[R.Head.Rel.index()])
        ++ProfDerived;
    }
  };

  // Slot-0 guards need no bindings (constants only — and, on fact rules,
  // every guard): failing here prunes the whole pass (the profiling flush
  // at the bottom still runs — the pass scanned its drive range for
  // nothing, which is exactly what "considered" should charge).
  bool GuardsPass = passesGuards(0);

  // Recursive nested-loop join over the plan's positive-atom order, as a
  // self-passed generic lambda (no std::function allocation per pass).
  auto match = [&](auto &&Self, size_t Pos) -> void {
    if (Pos == Plan.PositiveOrder.size()) {
      // Every atom matched and every guard slot passed on the way down.
      ++S.Matches;
      emitHead();
      return;
    }

    uint32_t AtomIdx = Plan.PositiveOrder[Pos];
    const Atom &A = R.Body[AtomIdx];
    Relation &Rel = DB.relation(A.Rel);
    uint32_t RelIdx = A.Rel.index();

    // The drive atom (plan position 0) ranges over the task's drive range —
    // the delta range for a delta pass, the snapshot for a seed pass.
    // Everything else is capped at the round's snapshot.
    uint32_t From = 0, To = Limit[RelIdx];
    if (Pos == 0 && HasDrive) {
      From = DriveFrom;
      To = DriveTo;
    }

    // Columns already determined by constants or previously bound variables
    // (static per plan position).
    const std::vector<uint32_t> &BoundCols = Plan.BoundColumns[Pos];

    // Tries one candidate tuple: verify columns, bind free variables on the
    // trail, check this position's guards, recurse, then unwind the trail.
    auto tryTuple = [&](uint32_t TupleIdx) {
      // Tombstoned by an incremental retraction (DESIGN.md §12): the slot
      // still sits in the store and its index postings, but it must not
      // witness any join. This single check covers both the postings walk
      // and the range-scan fallback below; negation probes and the
      // emit-side dedup go through `contains`/`find`, which already miss
      // dead tuples.
      if (!Rel.isLive(TupleIdx))
        return;
      const Symbol *Tuple = Rel.tuple(TupleIdx);
      size_t Mark = S.Trail.size();
      bool Ok = true;
      for (uint32_t Col = 0; Col != A.Terms.size() && Ok; ++Col) {
        const Term &T = A.Terms[Col];
        if (T.isConstant()) {
          Ok = Tuple[Col] == T.Value;
        } else if (S.BoundFlags[T.VarIndex]) {
          Ok = Tuple[Col] == S.Bindings[T.VarIndex];
        } else {
          S.Bindings[T.VarIndex] = Tuple[Col];
          S.BoundFlags[T.VarIndex] = 1;
          S.Trail.push_back(T.VarIndex);
        }
      }
      if (Ok && passesGuards(Pos + 1)) {
        if (Observer)
          S.MatchIdx[AtomIdx] = TupleIdx;
        Self(Self, Pos + 1);
      }
      while (S.Trail.size() > Mark) {
        S.BoundFlags[S.Trail.back()] = 0;
        S.Trail.pop_back();
      }
    };

    // Index lookup when useful; deltas are small, so scan those directly.
    bool IsDeltaPos = Pos == 0 && DeltaAtom >= 0;
    if (!BoundCols.empty() && !IsDeltaPos) {
      S.Key.clear();
      for (uint32_t Col : BoundCols) {
        const Term &T = A.Terms[Col];
        S.Key.push_back(T.isConstant() ? T.Value : S.Bindings[T.VarIndex]);
      }
      const std::vector<uint32_t> &Postings = Rel.lookup(BoundCols, S.Key);
      // Walk the postings by position, not iterator: a recursive rule can
      // insert into the very postings list being walked (head relation ==
      // this indexed body relation, equal key), and push_back may
      // reallocate the buffer under an iterator. Entries below the
      // precomputed end never move — postings are appended in ascending
      // dense order and tuples inserted mid-round sit at or past `Limit`,
      // beyond the `To` bound.
      size_t PBegin = static_cast<size_t>(
          std::lower_bound(Postings.begin(), Postings.end(), From) -
          Postings.begin());
      size_t PEnd = static_cast<size_t>(
          std::lower_bound(Postings.begin(), Postings.end(), To) -
          Postings.begin());
      for (size_t K = PBegin; K != PEnd; ++K)
        tryTuple(Postings[K]);
      return;
    }
    for (uint32_t TupleIdx = From; TupleIdx < To; ++TupleIdx)
      tryTuple(TupleIdx);
  };

  if (GuardsPass)
    match(match, 0);

  if (Profiling) {
    RuleProfile &RP = RuleProfiles[RuleIdx];
    RP.TuplesConsidered += HasDrive ? uint64_t(DriveTo - DriveFrom) : 1;
    RP.Derivations += ProfDerived;
    RP.Matches += S.Matches - MatchesAtStart;
  }
}
