//===- Database.h - Datalog relation storage --------------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tuple storage for the Datalog engine that evaluates JackEE's framework
/// models (the paper runs these rules on Soufflé; we evaluate the same rules
/// on this from-scratch engine). A `Relation` stores fixed-arity tuples of
/// interned symbols append-only, with O(1) dedup and lazily built column
/// indexes; append-only storage is what makes semi-naive deltas cheap
/// (a delta is just an index range).
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_DATALOG_DATABASE_H
#define JACKEE_DATALOG_DATABASE_H

#include "support/FlatMap.h"
#include "support/Id.h"
#include "support/SymbolTable.h"

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace jackee {
namespace datalog {

/// Identifies a relation within its owning `Database`.
using RelationId = Id<struct RelationTag>;

/// A fixed-arity relation of symbol tuples.
///
/// Tuples are append-only and deduplicated; each tuple has a dense index, so
/// `[From, To)` index ranges denote deltas during semi-naive evaluation.
///
/// Incremental updates (DRed, see DESIGN.md §12) *tombstone* tuples instead
/// of erasing them: `retract(Index)` marks the slot dead and removes it from
/// the dedup set, so the dense indexes that provenance records and column
/// indexes hold stay stable, while `contains`/`find`/`insert` treat the
/// tuple as absent. A retracted tuple that is re-derived is appended fresh
/// at a new index — past the evaluator's delta watermark, so re-derivation
/// cascades exactly like any other new tuple.
class Relation {
public:
  Relation(std::string Name, uint32_t Arity);
  Relation(const Relation &) = delete;
  Relation &operator=(const Relation &) = delete;

  const std::string &name() const { return Name; }
  uint32_t arity() const { return Arity; }

  /// Number of tuples currently stored.
  uint32_t size() const {
    return static_cast<uint32_t>(Data.size() / Arity);
  }

  /// Inserts \p Tuple (length must equal the arity).
  /// \returns true if the tuple was new.
  bool insert(std::span<const Symbol> Tuple);

  /// Appends pre-deduplicated tuples from flat symbol data (`arity()`
  /// symbols per tuple), preserving their order — the fast path for
  /// seeding a cell's relations from a captured base-fact snapshot
  /// (facts::BaseFactSet) without re-hashing each tuple through
  /// `insert`. Only valid on a fresh relation: no tuples, no indexes,
  /// no tombstones yet. Captured facts are distinct; a tuple repeated by
  /// a corrupt snapshot image is dropped, as `insert` would drop it.
  void bulkLoad(std::span<const Symbol> FlatTuples);

  /// The flat tuple store (`size() * arity()` symbols, dense-index
  /// order); what `bulkLoad` consumes and snapshot capture serializes.
  /// Valid until the next insertion.
  std::span<const Symbol> flatData() const { return Data; }

  /// \returns true if \p Tuple is present.
  ///
  /// Read-only, so safe against concurrent `contains`/`find`/`tuple`
  /// readers; must not run concurrently with `insert`/`lookup`/
  /// `ensureIndex`.
  bool contains(std::span<const Symbol> Tuple) const;

  /// Sentinel returned by `find` for absent tuples.
  static constexpr uint32_t NoTuple = ~uint32_t(0);

  /// \returns the dense index of \p Tuple, or `NoTuple` if absent. Since
  /// storage is append-only, the index is stable for the relation's
  /// lifetime — it is what provenance records use as a tuple id. Same
  /// thread-safety contract as `contains`.
  uint32_t find(std::span<const Symbol> Tuple) const;

  /// Tombstones the tuple at \p Index: it leaves the dedup set (so
  /// `contains`/`find` miss it and `insert` of the same contents appends a
  /// fresh copy) but keeps its storage slot and index entries, which join
  /// readers skip via `isLive`. Idempotent.
  void retract(uint32_t Index);

  /// False once \p Index has been retracted.
  bool isLive(uint32_t Index) const {
    return Index >= Dead.size() || !Dead[Index];
  }

  /// Number of live (non-retracted) tuples. Equals `size()` until the
  /// first retraction.
  uint32_t liveSize() const { return size() - DeadCount; }

  /// Number of tombstoned tuples.
  uint32_t deadCount() const { return DeadCount; }

  /// The tuple at dense index \p Index (pointer into the flat store; valid
  /// until the next insertion).
  const Symbol *tuple(uint32_t Index) const {
    assert(Index < size() && "tuple index out of range");
    return &Data[size_t(Index) * Arity];
  }

  /// Postings-list lookup: all tuple indexes whose columns \p Columns equal
  /// \p Key, in ascending order. Builds the per-column-set index on first
  /// use; later insertions keep it current.
  ///
  /// \param Columns strictly increasing column positions, non-empty.
  const std::vector<uint32_t> &lookup(std::span<const uint32_t> Columns,
                                      std::span<const Symbol> Key);

  /// Builds the index over \p Columns now if it does not exist yet.
  void ensureIndex(std::span<const uint32_t> Columns);

  /// Exact number of distinct keys (values of \p Columns) among the stored
  /// tuples, tombstoned ones included, kept by the index over \p Columns;
  /// 0 when no such index has been built. The join planner's cost model
  /// uses this to sharpen `size / distinct-keys` fanout estimates; 0 tells
  /// it to fall back to a selectivity heuristic.
  uint32_t distinctKeys(std::span<const uint32_t> Columns) const;

  /// Per-index statistics snapshot, for metrics and planner introspection.
  struct IndexStats {
    std::vector<uint32_t> Columns; ///< indexed column positions
    uint32_t DistinctKeys = 0;     ///< as `distinctKeys(Columns)`
    size_t Bytes = 0;              ///< heap bytes of this index
  };
  std::vector<IndexStats> indexStats() const;

  /// Approximate heap bytes of every built index (columns + postings).
  /// Grows as the planner's chosen orders demand new column sets — tracked
  /// separately so `observed.db.index_bytes` attributes planner-driven
  /// memory, but also included in `bytes()`.
  size_t indexBytes() const;

  /// Approximate heap bytes of this relation: tuple store capacity, dedup
  /// table, and every index's postings lists (`indexBytes()`). Feeds the
  /// metrics registry (`db.relation_bytes`).
  size_t bytes() const;

private:
  /// Postings grouped by the key columns: by the ids themselves for keys of
  /// one or two columns, by a `mix64` chain for longer keys. A group almost
  /// always holds one key; `DistinctKeys` counts keys, not groups.
  struct Index {
    std::vector<uint32_t> Columns;
    std::unordered_map<uint64_t, std::vector<uint32_t>> Postings;
    uint32_t DistinctKeys = 0;
  };

  uint64_t keyHashFor(const Index &Idx, const Symbol *Tuple) const;
  uint64_t keyHashFor(const Index &Idx, std::span<const Symbol> Key) const;
  void addToIndex(Index &Idx, uint32_t TupleIndex);
  Index *findIndex(std::span<const uint32_t> Columns) const;

  std::string Name;
  uint32_t Arity;
  std::vector<Symbol> Data;
  FlatIndexSet Dedup; ///< live tuples' indexes, hashed by content
  std::vector<std::unique_ptr<Index>> Indexes;
  std::vector<bool> Dead; ///< tombstones; lazily sized, empty until the
                          ///< first `retract`
  uint32_t DeadCount = 0;

  // Empty postings list returned for missing keys.
  static const std::vector<uint32_t> EmptyPostings;
};

/// A named collection of relations sharing one symbol table.
///
/// The symbol table is owned by the caller (it is shared with the IR and the
/// fact extractor so that e.g. class-name symbols coincide across layers).
class Database {
public:
  explicit Database(SymbolTable &Symbols) : Symbols(Symbols) {}
  Database(const Database &) = delete;
  Database &operator=(const Database &) = delete;

  SymbolTable &symbols() { return Symbols; }
  const SymbolTable &symbols() const { return Symbols; }

  /// Declares a relation. Redeclaration with the same arity returns the
  /// existing id; with a different arity it is a programming error.
  RelationId declare(std::string_view Name, uint32_t Arity);

  /// \returns the id of \p Name, or an invalid id if not declared.
  RelationId find(std::string_view Name) const;

  Relation &relation(RelationId Id) { return *Relations[Id.index()]; }
  const Relation &relation(RelationId Id) const {
    return *Relations[Id.index()];
  }

  size_t relationCount() const { return Relations.size(); }

  /// Convenience for tests and examples: interns \p Texts and inserts the
  /// tuple into \p Name (which must be declared). Hot paths resolve the
  /// relation once and insert symbol tuples (see facts::Extractor).
  bool insertFact(std::string_view Name,
                  std::initializer_list<std::string_view> Texts);

  /// Convenience: true if \p Name contains the tuple of interned \p Texts.
  bool containsFact(std::string_view Name,
                    std::initializer_list<std::string_view> Texts) const;

  /// Approximate heap bytes across all relations (see `Relation::bytes`).
  size_t bytes() const {
    size_t Total = 0;
    for (const auto &R : Relations)
      Total += R->bytes();
    return Total;
  }

  /// Approximate heap bytes across all relations' column indexes (see
  /// `Relation::indexBytes`). Subset of `bytes()`.
  size_t indexBytes() const {
    size_t Total = 0;
    for (const auto &R : Relations)
      Total += R->indexBytes();
    return Total;
  }

private:
  SymbolTable &Symbols;
  std::vector<std::unique_ptr<Relation>> Relations;
  std::unordered_map<std::string, uint32_t> ByName;
};

} // namespace datalog
} // namespace jackee

#endif // JACKEE_DATALOG_DATABASE_H
