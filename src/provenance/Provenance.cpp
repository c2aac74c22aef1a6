//===- Provenance.cpp -----------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "provenance/Provenance.h"

#include "datalog/Database.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace jackee;
using namespace jackee::provenance;

bool ProvenanceRecorder::candidateLess(uint32_t RuleIdx,
                                       std::span<const uint32_t> Refs,
                                       const Record &Old) const {
  if (RuleIdx != Old.RuleIdx)
    return RuleIdx < Old.RuleIdx;
  // Same rule, so the witnesses pair up positionally and each position's
  // relation is the body atom's. Compare by tuple *contents*: dense
  // indexes are not comparable across plan modes (a round's tuples are
  // appended in derivation order, which follows the join plan), but
  // relations deduplicate, so distinct indexes always mean distinct
  // contents and the content order is total.
  std::span<const uint32_t> OldRefs = refs(Old);
  size_t Pos = 0;
  for (const datalog::Atom &A : Rules->rules()[RuleIdx].Body) {
    if (A.Negated)
      continue;
    uint32_t Ref = Refs[Pos], OldRef = OldRefs[Pos];
    ++Pos;
    if (Ref == OldRef)
      continue;
    const datalog::Relation &R = DB.relation(A.Rel);
    const Symbol *T = R.tuple(Ref);
    const Symbol *OldT = R.tuple(OldRef);
    for (uint32_t C = 0; C != R.arity(); ++C)
      if (T[C] != OldT[C])
        return T[C].rawValue() < OldT[C].rawValue();
  }
  return false;
}

void ProvenanceRecorder::onDerivation(uint32_t Rel, uint32_t TupleIndex,
                                      uint32_t RuleIdx,
                                      std::span<const uint32_t> BodyRefs) {
  ++RecStats.CandidatesSeen;
  if (RecordOf.size() <= Rel)
    RecordOf.resize(Rel + 1);
  std::vector<uint32_t> &Slots = RecordOf[Rel];
  if (Slots.size() <= TupleIndex)
    Slots.resize(TupleIndex + 1, None);

  uint32_t &Slot = Slots[TupleIndex];
  if (Slot != None) {
    // Keep-min: replace only if the new candidate orders before the stored
    // one (rule index, then witness contents). The engine guarantees all
    // candidates for a tuple arrive within the round it first appeared, so
    // whichever survives is the round-canonical derivation under any
    // join plan.
    Record &Old = Records[Slot];
    if (!candidateLess(RuleIdx, BodyRefs, Old))
      return;
    ++RecStats.CandidatesReplaced;
    RecStats.WitnessRefs += BodyRefs.size();
    RecStats.WitnessRefs -= Old.RefCount;
    Old.RuleIdx = RuleIdx;
    if (BodyRefs.size() <= Old.RefCount) {
      std::copy(BodyRefs.begin(), BodyRefs.end(),
                RefArena.begin() + Old.RefBegin);
      Old.RefCount = static_cast<uint32_t>(BodyRefs.size());
    } else {
      Old.RefBegin = static_cast<uint32_t>(RefArena.size());
      Old.RefCount = static_cast<uint32_t>(BodyRefs.size());
      RefArena.insert(RefArena.end(), BodyRefs.begin(), BodyRefs.end());
    }
    return;
  }

  Slot = static_cast<uint32_t>(Records.size());
  Record R;
  R.RuleIdx = RuleIdx;
  R.RefBegin = static_cast<uint32_t>(RefArena.size());
  R.RefCount = static_cast<uint32_t>(BodyRefs.size());
  RefArena.insert(RefArena.end(), BodyRefs.begin(), BodyRefs.end());
  Records.push_back(R);
  ++RecStats.TuplesRecorded;
  RecStats.WitnessRefs += BodyRefs.size();
}

void ProvenanceRecorder::beginEpoch(std::string Label) {
  Epoch E;
  E.Label = std::move(Label);
  E.Watermark.reserve(DB.relationCount());
  for (size_t I = 0; I != DB.relationCount(); ++I)
    E.Watermark.push_back(
        DB.relation(datalog::RelationId(static_cast<uint32_t>(I))).size());
  Epochs.push_back(std::move(E));
}

const ProvenanceRecorder::Record *
ProvenanceRecorder::derivationOf(uint32_t Rel, uint32_t TupleIndex) const {
  if (Rel >= RecordOf.size() || TupleIndex >= RecordOf[Rel].size())
    return nullptr;
  uint32_t Slot = RecordOf[Rel][TupleIndex];
  return Slot == None ? nullptr : &Records[Slot];
}

namespace {

uint64_t tupleKey(uint32_t Rel, uint32_t Index) {
  return (static_cast<uint64_t>(Rel) << 32) | Index;
}

} // namespace

std::vector<ProvenanceRecorder::TupleRef>
ProvenanceRecorder::supportCone(std::span<const TupleRef> Seeds) const {
  // Reverse adjacency: witness tuple -> heads whose canonical record cites
  // it. Built per call by one pass over the record table — update() calls
  // this once per delta, so there is nothing to keep incremental here.
  std::unordered_map<uint64_t, std::vector<TupleRef>> Dependents;
  for (uint32_t Rel = 0; Rel != RecordOf.size(); ++Rel) {
    const std::vector<uint32_t> &Slots = RecordOf[Rel];
    for (uint32_t Idx = 0; Idx != Slots.size(); ++Idx) {
      uint32_t Slot = Slots[Idx];
      if (Slot == None)
        continue;
      const Record &R = Records[Slot];
      std::span<const uint32_t> Refs = refs(R);
      size_t Pos = 0;
      for (const datalog::Atom &A : Rules->rules()[R.RuleIdx].Body) {
        if (A.Negated)
          continue;
        Dependents[tupleKey(A.Rel.index(), Refs[Pos])].push_back({Rel, Idx});
        ++Pos;
      }
    }
  }

  std::vector<TupleRef> Cone;
  std::unordered_set<uint64_t> Visited;
  std::vector<TupleRef> Work(Seeds.begin(), Seeds.end());
  for (const TupleRef &S : Seeds)
    Visited.insert(tupleKey(S.Rel, S.Index));
  while (!Work.empty()) {
    TupleRef Cur = Work.back();
    Work.pop_back();
    auto It = Dependents.find(tupleKey(Cur.Rel, Cur.Index));
    if (It == Dependents.end())
      continue;
    for (const TupleRef &Dep : It->second)
      if (Visited.insert(tupleKey(Dep.Rel, Dep.Index)).second) {
        Cone.push_back(Dep);
        Work.push_back(Dep);
      }
  }
  return Cone;
}

std::vector<ProvenanceRecorder::TupleRef>
ProvenanceRecorder::tuplesDerivedBy(const std::vector<bool> &RuleMask) const {
  std::vector<TupleRef> Result;
  for (uint32_t Rel = 0; Rel != RecordOf.size(); ++Rel) {
    const std::vector<uint32_t> &Slots = RecordOf[Rel];
    for (uint32_t Idx = 0; Idx != Slots.size(); ++Idx) {
      uint32_t Slot = Slots[Idx];
      if (Slot == None)
        continue;
      uint32_t Rule = Records[Slot].RuleIdx;
      if (Rule < RuleMask.size() && RuleMask[Rule])
        Result.push_back({Rel, Idx});
    }
  }
  return Result;
}

void ProvenanceRecorder::invalidate(uint32_t Rel, uint32_t TupleIndex) {
  if (Rel >= RecordOf.size() || TupleIndex >= RecordOf[Rel].size())
    return;
  uint32_t &Slot = RecordOf[Rel][TupleIndex];
  if (Slot == None)
    return;
  RecStats.WitnessRefs -= Records[Slot].RefCount;
  --RecStats.TuplesRecorded;
  Slot = None;
}

const std::string &ProvenanceRecorder::epochOf(uint32_t Rel,
                                               uint32_t TupleIndex) const {
  static const std::string Unknown = "unknown";
  // The owning epoch is the last one whose start watermark does not exceed
  // the tuple's index (relations declared after an epoch began have no
  // watermark entry there — treat the missing entry as 0).
  const std::string *Found = &Unknown;
  for (const Epoch &E : Epochs) {
    uint32_t Mark = Rel < E.Watermark.size() ? E.Watermark[Rel] : 0;
    if (Mark <= TupleIndex)
      Found = &E.Label;
    else
      break;
  }
  return *Found;
}

void ProvenanceRecorder::recordGlue(GlueEvent::Kind Kind, std::string Subject,
                                    std::string Detail, uint32_t Round) {
  GlueEvent E;
  E.EventKind = Kind;
  E.Subject = std::move(Subject);
  E.Detail = std::move(Detail);
  E.Round = Round;
  Glue.push_back(std::move(E));
}

const char *ProvenanceRecorder::glueKindName(GlueEvent::Kind Kind) {
  switch (Kind) {
  case GlueEvent::Kind::EntryPointExercised:
    return "entry-point-exercised";
  case GlueEvent::Kind::MockObjectCreated:
    return "mock-object-created";
  case GlueEvent::Kind::BeanObjectCreated:
    return "bean-object-created";
  case GlueEvent::Kind::FieldInjection:
    return "field-injection";
  case GlueEvent::Kind::MethodInjection:
    return "method-injection";
  case GlueEvent::Kind::GetBeanResolved:
    return "get-bean-resolved";
  }
  return "unknown";
}
