//===- Rule.cpp -----------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "datalog/Rule.h"

#include <algorithm>
#include <cmath>

using namespace jackee;
using namespace jackee::datalog;

namespace {

/// Live tuple count of \p A's relation under \p Ctx (0 when unknown).
double atomSize(const Atom &A, const PlanContext &Ctx) {
  uint32_t Rel = A.Rel.index();
  if (Rel < Ctx.RelationSizes.size())
    return Ctx.RelationSizes[Rel];
  if (Ctx.Stats)
    return Ctx.Stats->relation(A.Rel).size();
  return 0;
}

/// Estimated number of tuples of \p A compatible with the current bindings:
/// exact postings-list average when an index over the bound columns exists,
/// else the uniform-selectivity `N^(1 - B/A)` heuristic. \p Cols is scratch
/// for the bound-column set (columns that are constants or carry an
/// already-bound variable — repeated fresh variables within the atom do not
/// count, matching `BoundColumns` semantics).
double atomEstimate(const Atom &A, const std::vector<bool> &Bound,
                    const PlanContext &Ctx, std::vector<uint32_t> &Cols) {
  Cols.clear();
  for (uint32_t Col = 0; Col != A.Terms.size(); ++Col) {
    const Term &T = A.Terms[Col];
    if (T.isConstant() || Bound[T.VarIndex])
      Cols.push_back(Col);
  }
  double N = atomSize(A, Ctx);
  if (N <= 0)
    return 0;
  uint32_t Arity = static_cast<uint32_t>(A.Terms.size());
  if (Cols.size() == Arity)
    return 1; // fully bound: one existence probe
  if (!Cols.empty() && Ctx.Stats) {
    uint32_t Keys = Ctx.Stats->relation(A.Rel).distinctKeys(Cols);
    if (Keys > 0)
      return N / Keys;
  }
  return std::pow(N, 1.0 - double(Cols.size()) / Arity);
}

void bindAtomVars(const Atom &A, std::vector<bool> &Bound) {
  for (const Term &T : A.Terms)
    if (T.isVariable())
      Bound[T.VarIndex] = true;
}

} // namespace

JoinPlan jackee::datalog::makeJoinPlan(const Rule &R, int DeltaAtom,
                                       const PlanContext &Ctx) {
  // Body order: the delta atom first, then positive atoms as spelled. The
  // greedy pick breaks ties toward it, and the planner metrics measure
  // against it.
  std::vector<uint32_t> BodyOrder;
  if (DeltaAtom >= 0)
    BodyOrder.push_back(static_cast<uint32_t>(DeltaAtom));
  for (uint32_t I = 0; I != R.Body.size(); ++I)
    if (!R.Body[I].Negated && static_cast<int>(I) != DeltaAtom)
      BodyOrder.push_back(I);

  JoinPlan Plan;
  if (BodyOrder.size() <= 1) {
    Plan.PositiveOrder = BodyOrder;
  } else {
    // Greedy selection: keep the delta pinned, then repeatedly take the
    // unplaced atom with the smallest estimated fanout under the variables
    // bound so far. Scanning candidates in body order makes `<` ties
    // resolve toward the spelled body — the plan is deterministic and
    // degrades to body order when no statistics discriminate.
    std::vector<bool> Bound(R.VariableCount, false);
    std::vector<bool> Placed(R.Body.size(), false);
    std::vector<uint32_t> ColsScratch;
    Plan.PositiveOrder.reserve(BodyOrder.size());
    size_t Start = 0;
    if (DeltaAtom >= 0) {
      Plan.PositiveOrder.push_back(static_cast<uint32_t>(DeltaAtom));
      Placed[DeltaAtom] = true;
      bindAtomVars(R.Body[DeltaAtom], Bound);
      Start = 1;
    }
    while (Plan.PositiveOrder.size() != BodyOrder.size()) {
      uint32_t BestAtom = ~uint32_t(0);
      double BestCost = 0;
      for (size_t Rank = Start; Rank != BodyOrder.size(); ++Rank) {
        uint32_t AtomIdx = BodyOrder[Rank];
        if (Placed[AtomIdx])
          continue;
        double Cost = atomEstimate(R.Body[AtomIdx], Bound, Ctx, ColsScratch);
        if (BestAtom == ~uint32_t(0) || Cost < BestCost) {
          BestAtom = AtomIdx;
          BestCost = Cost;
        }
      }
      Plan.PositiveOrder.push_back(BestAtom);
      Placed[BestAtom] = true;
      bindAtomVars(R.Body[BestAtom], Bound);
    }
  }

  // Bound columns and the fanout estimate for the chosen order.
  std::vector<bool> Bound(R.VariableCount, false);
  std::vector<uint32_t> ColsScratch;
  Plan.BoundColumns.resize(Plan.PositiveOrder.size());
  Plan.EstimatedFanout = 1;
  for (size_t Pos = 0; Pos != Plan.PositiveOrder.size(); ++Pos) {
    const Atom &A = R.Body[Plan.PositiveOrder[Pos]];
    Plan.EstimatedFanout *= atomEstimate(A, Bound, Ctx, ColsScratch);
    for (uint32_t Col = 0; Col != A.Terms.size(); ++Col) {
      const Term &T = A.Terms[Col];
      if (T.isConstant() || Bound[T.VarIndex])
        Plan.BoundColumns[Pos].push_back(Col);
    }
    // Variables of this atom are bound for all later positions (repeated
    // occurrences within the atom are verified per tuple, not via the
    // bound-column key, matching the evaluator's runtime behavior).
    bindAtomVars(A, Bound);
  }
  if (Plan.PositiveOrder.empty())
    Plan.EstimatedFanout = 0;

  for (size_t Pos = 0; Pos != Plan.PositiveOrder.size(); ++Pos) {
    uint32_t BodyPos = static_cast<uint32_t>(
        std::find(BodyOrder.begin(), BodyOrder.end(),
                  Plan.PositiveOrder[Pos]) -
        BodyOrder.begin());
    uint32_t P = static_cast<uint32_t>(Pos);
    Plan.ReorderDistance += P > BodyPos ? P - BodyPos : BodyPos - P;
  }

  // Guard placement. `FirstBoundAt[v]` is the earliest slot k (i.e. after
  // the first k plan atoms) where variable v is bound; rule safety
  // guarantees every guard variable is bound by some positive atom, so
  // every guard lands in a valid slot.
  size_t Order = Plan.PositiveOrder.size();
  Plan.ConstraintsAt.assign(Order + 1, {});
  Plan.NegationsAt.assign(Order + 1, {});
  std::vector<uint32_t> FirstBoundAt(R.VariableCount, 0);
  {
    std::vector<bool> Seen(R.VariableCount, false);
    for (size_t Pos = 0; Pos != Order; ++Pos)
      for (const Term &T : R.Body[Plan.PositiveOrder[Pos]].Terms)
        if (T.isVariable() && !Seen[T.VarIndex]) {
          Seen[T.VarIndex] = true;
          FirstBoundAt[T.VarIndex] = static_cast<uint32_t>(Pos) + 1;
        }
  }
  auto slotFor = [&](std::initializer_list<const Term *> Terms,
                     const std::vector<Term> *MoreTerms) {
    uint32_t Slot = 0;
    for (const Term *T : Terms)
      if (T->isVariable())
        Slot = std::max(Slot, FirstBoundAt[T->VarIndex]);
    if (MoreTerms)
      for (const Term &T : *MoreTerms)
        if (T.isVariable())
          Slot = std::max(Slot, FirstBoundAt[T.VarIndex]);
    return Slot;
  };
  uint32_t LastSlot = static_cast<uint32_t>(Order);
  for (uint32_t CI = 0; CI != R.Constraints.size(); ++CI) {
    const Constraint &C = R.Constraints[CI];
    uint32_t Slot = slotFor({&C.Lhs, &C.Rhs}, nullptr);
    Plan.ConstraintsAt[Slot].push_back(CI);
    Plan.GuardHoistDepth += LastSlot - Slot;
  }
  for (uint32_t AI = 0; AI != R.Body.size(); ++AI) {
    if (!R.Body[AI].Negated)
      continue;
    uint32_t Slot = slotFor({}, &R.Body[AI].Terms);
    Plan.NegationsAt[Slot].push_back(AI);
    Plan.GuardHoistDepth += LastSlot - Slot;
  }
  return Plan;
}

std::string RuleSet::add(const Database &DB, Rule R) {
  auto arityError = [&](const Atom &A) -> std::string {
    const Relation &Rel = DB.relation(A.Rel);
    if (A.Terms.size() == Rel.arity())
      return "";
    return "atom for '" + Rel.name() + "' has " +
           std::to_string(A.Terms.size()) + " terms, relation arity is " +
           std::to_string(Rel.arity());
  };

  if (std::string Err = arityError(R.Head); !Err.empty())
    return Err;
  for (const Atom &A : R.Body)
    if (std::string Err = arityError(A); !Err.empty())
      return Err;

  // Collect variables bound by positive body atoms.
  std::vector<bool> Bound(R.VariableCount, false);
  for (const Atom &A : R.Body) {
    if (A.Negated)
      continue;
    for (const Term &T : A.Terms)
      if (T.isVariable())
        Bound[T.VarIndex] = true;
  }

  auto checkBound = [&](const Term &T, const char *Where) -> std::string {
    if (T.isConstant() || Bound[T.VarIndex])
      return "";
    return std::string("unsafe rule: variable in ") + Where +
           " does not occur in any positive body atom";
  };

  for (const Term &T : R.Head.Terms)
    if (std::string Err = checkBound(T, "head"); !Err.empty())
      return Err;
  for (const Atom &A : R.Body) {
    if (!A.Negated)
      continue;
    for (const Term &T : A.Terms)
      if (std::string Err = checkBound(T, "negated atom"); !Err.empty())
        return Err;
  }
  for (const Constraint &C : R.Constraints) {
    if (std::string Err = checkBound(C.Lhs, "constraint"); !Err.empty())
      return Err;
    if (std::string Err = checkBound(C.Rhs, "constraint"); !Err.empty())
      return Err;
  }

  Rules.push_back(std::move(R));
  return "";
}

void RuleSet::append(const RuleSet &Other) {
  Rules.insert(Rules.end(), Other.Rules.begin(), Other.Rules.end());
}
