//===- BaseFacts.cpp ------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "facts/BaseFacts.h"

using namespace jackee;
using namespace jackee::facts;

BaseFactSet jackee::facts::captureBaseFacts(const datalog::Database &DB) {
  BaseFactSet Set;
  Set.Relations.reserve(DB.relationCount());
  for (size_t RI = 0; RI != DB.relationCount(); ++RI) {
    const datalog::Relation &R =
        DB.relation(datalog::RelationId(static_cast<uint32_t>(RI)));
    assert(R.deadCount() == 0 &&
           "capture base facts before any retraction exists");
    BaseFactSet::Rel Rel;
    Rel.Name = R.name();
    Rel.Arity = R.arity();
    std::span<const Symbol> Flat = R.flatData();
    Rel.Tuples.assign(Flat.begin(), Flat.end());
    Set.Relations.push_back(std::move(Rel));
  }
  return Set;
}

std::string jackee::facts::bulkLoadBaseFacts(datalog::Database &DB,
                                             const BaseFactSet &Facts,
                                             const Demand &Wanted) {
  for (const BaseFactSet::Rel &Rel : Facts.Relations) {
    std::optional<size_t> Base = findBaseRelation(Rel.Name);
    if (!Base)
      return "unknown relation '" + Rel.Name + "'";
    if (!Wanted[*Base])
      continue;
    datalog::RelationId Id = DB.find(Rel.Name);
    if (!Id.isValid())
      return "undeclared relation '" + Rel.Name + "'";
    datalog::Relation &R = DB.relation(Id);
    if (R.arity() != Rel.Arity)
      return "arity mismatch for '" + Rel.Name + "' (" +
             std::to_string(Rel.Arity) + " captured, " +
             std::to_string(R.arity()) + " declared)";
    if (Rel.Arity == 0 || Rel.Tuples.size() % Rel.Arity != 0)
      return "ragged tuple data for '" + Rel.Name + "'";
    if (R.size() != 0)
      return "relation '" + Rel.Name + "' already has facts";
    R.bulkLoad(Rel.Tuples);
  }
  return "";
}

std::string jackee::facts::validateBaseFacts(const BaseFactSet &Facts,
                                             size_t SymbolCount) {
  for (const BaseFactSet::Rel &Rel : Facts.Relations) {
    std::optional<size_t> Base = findBaseRelation(Rel.Name);
    if (!Base)
      return "unknown relation '" + Rel.Name + "'";
    if (Schema[*Base].Arity != Rel.Arity)
      return "arity mismatch for '" + Rel.Name + "'";
    if (Rel.Arity == 0 || Rel.Tuples.size() % Rel.Arity != 0)
      return "ragged tuple data for '" + Rel.Name + "'";
    for (Symbol S : Rel.Tuples)
      // rawValue() >= SymbolCount covers the invalid sentinel (~0) too.
      if (S.rawValue() >= SymbolCount)
        return "tuple symbol out of range in '" + Rel.Name + "'";
  }
  return "";
}
