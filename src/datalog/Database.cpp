//===- Database.cpp -------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "datalog/Database.h"

#include <algorithm>

using namespace jackee;
using namespace jackee::datalog;

const std::vector<uint32_t> Relation::EmptyPostings;
thread_local const Symbol *Relation::Probe = nullptr;

size_t Relation::TupleHash::operator()(uint32_t Index) const {
  const Symbol *T = R->tupleOrProbe(Index);
  size_t Seed = 0x9e3779b9u;
  for (uint32_t I = 0; I != R->Arity; ++I)
    Seed = hashCombine(Seed, T[I].rawValue());
  return Seed;
}

bool Relation::TupleEq::operator()(uint32_t Lhs, uint32_t Rhs) const {
  const Symbol *A = R->tupleOrProbe(Lhs);
  const Symbol *B = R->tupleOrProbe(Rhs);
  return std::equal(A, A + R->Arity, B);
}

Relation::Relation(std::string Name, uint32_t Arity)
    : Name(std::move(Name)), Arity(Arity),
      Dedup(16, TupleHash{this}, TupleEq{this}) {
  assert(Arity > 0 && "relations must have at least one column");
}

bool Relation::insert(std::span<const Symbol> Tuple) {
  assert(Tuple.size() == Arity && "tuple arity mismatch");
  Probe = Tuple.data();
  if (Dedup.find(ProbeIndex) != Dedup.end())
    return false;

  uint32_t NewIndex = size();
  Data.insert(Data.end(), Tuple.begin(), Tuple.end());
  Dedup.insert(NewIndex);
  for (auto &Idx : Indexes)
    addToIndex(*Idx, NewIndex);
  return true;
}

void Relation::bulkLoad(std::span<const Symbol> FlatTuples) {
  assert(FlatTuples.size() % Arity == 0 && "ragged bulk-load data");
  assert(size() == 0 && Indexes.empty() && Dead.empty() &&
         "bulk-load only into a fresh relation");
  const uint32_t Count = static_cast<uint32_t>(FlatTuples.size() / Arity);
  Data.reserve(FlatTuples.size());
  Dedup.reserve(Count);
  for (uint32_t I = 0; I != Count; ++I) {
    uint32_t NewIndex = size();
    Data.insert(Data.end(), FlatTuples.begin() + size_t(I) * Arity,
                FlatTuples.begin() + size_t(I + 1) * Arity);
    if (!Dedup.insert(NewIndex).second)
      Data.resize(size_t(NewIndex) * Arity); // a repeat: keep the first
  }
}

bool Relation::contains(std::span<const Symbol> Tuple) const {
  assert(Tuple.size() == Arity && "tuple arity mismatch");
  // The probe pointer is thread-local scratch state, so concurrent readers
  // each probe through their own slot.
  Probe = Tuple.data();
  return Dedup.find(ProbeIndex) != Dedup.end();
}

uint32_t Relation::find(std::span<const Symbol> Tuple) const {
  assert(Tuple.size() == Arity && "tuple arity mismatch");
  Probe = Tuple.data();
  auto It = Dedup.find(ProbeIndex);
  return It == Dedup.end() ? NoTuple : *It;
}

void Relation::retract(uint32_t Index) {
  assert(Index < size() && "retracting an out-of-range tuple");
  if (Index < Dead.size() && Dead[Index])
    return;
  if (Dead.size() < size())
    Dead.resize(size(), false);
  Dead[Index] = true;
  ++DeadCount;
  // The dedup set hashes/compares through the stored tuple, so erasing by
  // the stored index finds exactly this element. Index postings keep the
  // slot; readers skip it via `isLive`.
  Dedup.erase(Index);
}

uint64_t Relation::keyHashFor(const Index &Idx, const Symbol *Tuple) const {
  size_t Seed = 0xabcdefu;
  for (uint32_t Col : Idx.Columns)
    Seed = hashCombine(Seed, Tuple[Col].rawValue());
  return Seed;
}

uint64_t Relation::keyHashFor(const Index &,
                              std::span<const Symbol> Key) const {
  size_t Seed = 0xabcdefu;
  for (Symbol S : Key)
    Seed = hashCombine(Seed, S.rawValue());
  return Seed;
}

void Relation::addToIndex(Index &Idx, uint32_t TupleIndex) {
  Idx.Postings[keyHashFor(Idx, tuple(TupleIndex))].push_back(TupleIndex);
}

Relation::Index *Relation::findIndex(std::span<const uint32_t> Columns) const {
  for (const auto &Idx : Indexes)
    if (std::equal(Idx->Columns.begin(), Idx->Columns.end(), Columns.begin(),
                   Columns.end()))
      return Idx.get();
  return nullptr;
}

void Relation::ensureIndex(std::span<const uint32_t> Columns) {
  assert(!Columns.empty() && "index needs at least one column");
  assert(std::is_sorted(Columns.begin(), Columns.end()) &&
         "columns must be strictly increasing");
  if (findIndex(Columns))
    return;
  auto NewIndex = std::make_unique<Index>();
  NewIndex->Columns.assign(Columns.begin(), Columns.end());
  Index *Found = NewIndex.get();
  Indexes.push_back(std::move(NewIndex));
  for (uint32_t I = 0, E = size(); I != E; ++I)
    addToIndex(*Found, I);
}

const std::vector<uint32_t> &
Relation::lookup(std::span<const uint32_t> Columns,
                 std::span<const Symbol> Key) {
  assert(!Columns.empty() && Columns.size() == Key.size() &&
         "column/key shape mismatch");
  ensureIndex(Columns);
  const Index *Found = findIndex(Columns);

  auto It = Found->Postings.find(keyHashFor(*Found, Key));
  if (It == Found->Postings.end())
    return EmptyPostings;
  // Note: postings are keyed by hash only; callers re-verify the bound
  // columns against each candidate tuple (the evaluator always does).
  return It->second;
}

uint32_t Relation::distinctKeys(std::span<const uint32_t> Columns) const {
  const Index *Found = findIndex(Columns);
  return Found ? static_cast<uint32_t>(Found->Postings.size()) : 0;
}

std::vector<Relation::IndexStats> Relation::indexStats() const {
  std::vector<IndexStats> Stats;
  Stats.reserve(Indexes.size());
  for (const auto &Idx : Indexes) {
    IndexStats &S = Stats.emplace_back();
    S.Columns = Idx->Columns;
    S.DistinctKeys = static_cast<uint32_t>(Idx->Postings.size());
    S.Bytes = sizeof(Index) + Idx->Columns.capacity() * sizeof(uint32_t) +
              Idx->Postings.bucket_count() * sizeof(void *);
    for (const auto &[Hash, Postings] : Idx->Postings)
      S.Bytes += sizeof(Hash) + Postings.capacity() * sizeof(uint32_t);
  }
  return Stats;
}

size_t Relation::indexBytes() const {
  size_t Total = 0;
  for (const auto &Idx : Indexes) {
    Total += sizeof(Index) + Idx->Columns.capacity() * sizeof(uint32_t) +
             Idx->Postings.bucket_count() * sizeof(void *);
    for (const auto &[Hash, Postings] : Idx->Postings)
      Total += sizeof(Hash) + Postings.capacity() * sizeof(uint32_t);
  }
  return Total;
}

size_t Relation::bytes() const {
  return Data.capacity() * sizeof(Symbol) +
         Dedup.bucket_count() * sizeof(void *) +
         Dedup.size() * (sizeof(uint32_t) + sizeof(void *)) + indexBytes();
}

RelationId Database::declare(std::string_view Name, uint32_t Arity) {
  auto It = ByName.find(std::string(Name));
  if (It != ByName.end()) {
    assert(Relations[It->second]->arity() == Arity &&
           "relation redeclared with a different arity");
    return RelationId(It->second);
  }
  uint32_t Index = static_cast<uint32_t>(Relations.size());
  Relations.push_back(std::make_unique<Relation>(std::string(Name), Arity));
  ByName.emplace(std::string(Name), Index);
  return RelationId(Index);
}

RelationId Database::find(std::string_view Name) const {
  auto It = ByName.find(std::string(Name));
  if (It == ByName.end())
    return RelationId::invalid();
  return RelationId(It->second);
}

bool Database::insertFact(std::string_view Name,
                          std::initializer_list<std::string_view> Texts) {
  RelationId Id = find(Name);
  assert(Id.isValid() && "inserting into an undeclared relation");
  std::vector<Symbol> Tuple;
  Tuple.reserve(Texts.size());
  for (std::string_view Text : Texts)
    Tuple.push_back(Symbols.intern(Text));
  return relation(Id).insert(Tuple);
}

bool Database::containsFact(
    std::string_view Name, std::initializer_list<std::string_view> Texts) const {
  RelationId Id = find(Name);
  if (!Id.isValid())
    return false;
  std::vector<Symbol> Tuple;
  Tuple.reserve(Texts.size());
  for (std::string_view Text : Texts) {
    Symbol Sym = Symbols.lookup(Text);
    if (!Sym.isValid())
      return false;
    Tuple.push_back(Sym);
  }
  return relation(Id).contains(Tuple);
}
