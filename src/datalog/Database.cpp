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
static_assert(Relation::NoTuple == FlatIndexSet::NoIndex,
              "find() returns the dedup set's absent marker as is");

namespace {

/// The dedup set's hash of the `R.arity()` symbols at \p Tuple.
uint32_t tupleHash(const Relation &R, const Symbol *Tuple) {
  uint64_t Hash = R.arity();
  for (uint32_t I = 0; I != R.arity(); ++I)
    Hash = mix64(Hash ^ Tuple[I].rawValue());
  return static_cast<uint32_t>(Hash);
}

/// The dedup set's equality test: does stored tuple `I` equal \p Tuple?
auto sameAs(const Relation &R, const Symbol *Tuple) {
  return [&R, Tuple](uint32_t I) {
    return std::equal(Tuple, Tuple + R.arity(), R.tuple(I));
  };
}

/// The postings key of a key-column run. One or two ids pack exactly, so
/// no two keys share a group and nearby ids stay nearby in the map; longer
/// keys chain `mix64`.
template <typename ColumnFn>
uint64_t postingsKey(size_t Columns, ColumnFn &&Column) {
  if (Columns == 1)
    return Column(0);
  if (Columns == 2)
    return packPair(Column(0), Column(1));
  uint64_t Hash = Columns;
  for (size_t I = 0; I != Columns; ++I)
    Hash = mix64(Hash ^ Column(I));
  return Hash;
}

} // namespace

Relation::Relation(std::string Name, uint32_t Arity)
    : Name(std::move(Name)), Arity(Arity) {
  assert(Arity > 0 && "relations must have at least one column");
}

bool Relation::insert(std::span<const Symbol> Tuple) {
  assert(Tuple.size() == Arity && "tuple arity mismatch");
  const Symbol *T = Tuple.data();
  uint32_t NewIndex = size();
  if (Dedup.insert(tupleHash(*this, T), NewIndex, sameAs(*this, T)) !=
      FlatIndexSet::NoIndex)
    return false;
  Data.insert(Data.end(), Tuple.begin(), Tuple.end());
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
    const Symbol *T = FlatTuples.data() + size_t(I) * Arity;
    // A repeat keeps the first copy.
    if (Dedup.insert(tupleHash(*this, T), size(), sameAs(*this, T)) ==
        FlatIndexSet::NoIndex)
      Data.insert(Data.end(), T, T + Arity);
  }
}

bool Relation::contains(std::span<const Symbol> Tuple) const {
  return find(Tuple) != NoTuple;
}

uint32_t Relation::find(std::span<const Symbol> Tuple) const {
  assert(Tuple.size() == Arity && "tuple arity mismatch");
  return Dedup.find(tupleHash(*this, Tuple.data()),
                    sameAs(*this, Tuple.data()));
}

void Relation::retract(uint32_t Index) {
  assert(Index < size() && "retracting an out-of-range tuple");
  if (Index < Dead.size() && Dead[Index])
    return;
  if (Dead.size() < size())
    Dead.resize(size(), false);
  Dead[Index] = true;
  ++DeadCount;
  // The stored tuple still hashes to its slot. Index postings keep the
  // tuple; readers skip it via `isLive`.
  Dedup.erase(tupleHash(*this, tuple(Index)), Index);
}

uint64_t Relation::keyHashFor(const Index &Idx, const Symbol *Tuple) const {
  return postingsKey(Idx.Columns.size(), [&](size_t I) {
    return Tuple[Idx.Columns[I]].rawValue();
  });
}

uint64_t Relation::keyHashFor(const Index &,
                              std::span<const Symbol> Key) const {
  return postingsKey(Key.size(), [&](size_t I) { return Key[I].rawValue(); });
}

void Relation::addToIndex(Index &Idx, uint32_t TupleIndex) {
  const Symbol *T = tuple(TupleIndex);
  std::vector<uint32_t> &Group = Idx.Postings[keyHashFor(Idx, T)];
  // A key is new unless a tuple already in its group has equal key
  // columns; the scan stops at the group's first tuple unless two long
  // keys share their 64-bit hash.
  auto SameKey = [&](uint32_t Other) {
    const Symbol *O = tuple(Other);
    return std::all_of(Idx.Columns.begin(), Idx.Columns.end(),
                       [&](uint32_t Col) { return O[Col] == T[Col]; });
  };
  if (std::none_of(Group.begin(), Group.end(), SameKey))
    ++Idx.DistinctKeys;
  Group.push_back(TupleIndex);
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
  return Found ? Found->DistinctKeys : 0;
}

std::vector<Relation::IndexStats> Relation::indexStats() const {
  std::vector<IndexStats> Stats;
  Stats.reserve(Indexes.size());
  for (const auto &Idx : Indexes) {
    IndexStats &S = Stats.emplace_back();
    S.Columns = Idx->Columns;
    S.DistinctKeys = Idx->DistinctKeys;
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
  return Data.capacity() * sizeof(Symbol) + Dedup.bytes() + indexBytes();
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
