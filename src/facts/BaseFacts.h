//===- BaseFacts.h - Captured base-program relation facts -------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A `BaseFactSet` is the extracted base-program relation content of one
/// collection-model snapshot, captured as flat relocatable tuple vectors:
/// per relation, `Arity` symbol ids per tuple, in the exact order a full
/// `Extractor::extractProgram` run inserts them. Snapshots carry one so an
/// analysis cell can *bulk-load* the base facts and extract only the
/// application delta (`extractProgramDelta` past the captured watermark)
/// instead of re-walking the whole base library — the fact-side half of the
/// base-program snapshot cache, and the payload the snapshot store
/// (src/snapshot/) serializes.
///
/// A set always holds every base relation, whatever a cell demands: one
/// image serves every rule set, `Application::ExtraRules` included, and a
/// cell loads only the relations its rules read.
///
/// Order equivalence: base-then-delta extraction inserts every relation's
/// tuples in the same order as one full extraction of the combined program,
/// because `extractProgramDelta` walks entity tables in id order from the
/// watermark and entities never mutate after creation. Dense per-relation
/// tuple indexes — what provenance records and explain trees key on —
/// therefore match the from-scratch run exactly.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_FACTS_BASEFACTS_H
#define JACKEE_FACTS_BASEFACTS_H

#include "datalog/Database.h"
#include "facts/Extractor.h"

#include <string>
#include <vector>

namespace jackee {
namespace facts {

/// Extracted base relations plus the entity-table watermark they cover.
/// All references are index-based (symbol ids into the snapshot's table),
/// never pointers, so the set serializes relocatably.
struct BaseFactSet {
  struct Rel {
    std::string Name;
    uint32_t Arity = 0;
    /// Flat tuple data: `Arity` symbols per tuple, insertion order.
    std::vector<Symbol> Tuples;

    uint32_t tupleCount() const {
      return Arity == 0 ? 0 : static_cast<uint32_t>(Tuples.size() / Arity);
    }
  };

  /// Every relation of the captured database, in declaration order.
  std::vector<Rel> Relations;

  /// Base entity-table sizes at capture time; cells delta-extract from
  /// here.
  ProgramWatermark Watermark;

  bool empty() const { return Relations.empty(); }
};

/// Captures every relation of \p DB. The database must hold only freshly
/// extracted facts: no tombstones (capture happens right after base
/// extraction, before any rules run).
BaseFactSet captureBaseFacts(const datalog::Database &DB);

/// Bulk-appends the relations of \p Facts that \p Wanted names into
/// \p DB's same-named relations, preserving tuple order; the others stay
/// empty. Every loaded relation must be declared, arity-matched and still
/// empty (bulk-loading is the *first* fact source of a cell). \returns an
/// empty string on success, else a diagnostic — the caller reports it
/// rather than analyzing half-loaded facts.
std::string bulkLoadBaseFacts(datalog::Database &DB, const BaseFactSet &Facts,
                              const Demand &Wanted);

/// Structural validation against the extractor schema (`facts::Schema`)
/// without touching any database: relation names and arities must match
/// it, tuple data must not be ragged, and every symbol id must be below
/// \p SymbolCount. \returns an empty string or the first problem found —
/// the snapshot loader rejects a store (and falls back to builders) on any
/// non-empty result.
std::string validateBaseFacts(const BaseFactSet &Facts, size_t SymbolCount);

} // namespace facts
} // namespace jackee

#endif // JACKEE_FACTS_BASEFACTS_H
