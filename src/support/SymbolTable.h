//===- SymbolTable.h - String interning -------------------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String interning. All names in the system (class names, method signatures,
/// annotation types, XML attribute values, Datalog symbols) are interned once
/// and referred to by a 32-bit `Symbol`, making equality and hashing O(1).
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_SUPPORT_SYMBOLTABLE_H
#define JACKEE_SUPPORT_SYMBOLTABLE_H

#include "support/Id.h"

#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace jackee {

/// An interned string. Symbols are only meaningful relative to the
/// `SymbolTable` that produced them.
using Symbol = Id<struct SymbolTag>;

/// Interns strings and hands out dense `Symbol` ids.
///
/// Storage is a deque so that `text()` references stay valid as the table
/// grows. The lookup index is a flat open-addressing table of
/// (hash fragment, symbol index) pairs — no per-entry node allocations,
/// which is what makes bulk rebuilds (the snapshot decoder every analysis
/// cell runs) and the extraction-time intern storm cheap.
class SymbolTable {
public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable &) = delete;
  SymbolTable &operator=(const SymbolTable &) = delete;

  /// Interns \p Text, returning the existing symbol if already present.
  Symbol intern(std::string_view Text);

  /// Interns \p Text that the caller expects to be absent. \returns the
  /// new symbol, or the invalid symbol (table unchanged) when \p Text was
  /// in fact already present — the duplicate check of the snapshot
  /// decoder, whose input lists every string exactly once.
  Symbol internNew(std::string_view Text);

  /// Pre-sizes the lookup index for \p N symbols: one rehash up front
  /// instead of O(log N) growth rehashes when the final size is known.
  void reserve(size_t N);

  /// \returns the symbol for \p Text, or the invalid symbol if it was never
  /// interned. Never allocates.
  Symbol lookup(std::string_view Text) const;

  /// \returns the text of \p Sym; the reference stays valid for the lifetime
  /// of the table.
  const std::string &text(Symbol Sym) const {
    assert(Sym.index() < Strings.size() && "foreign symbol");
    return Strings[Sym.index()];
  }

  size_t size() const { return Strings.size(); }

private:
  /// Probes for \p Text with \p Hash. \returns the slot holding its entry,
  /// or the empty slot where it belongs. Never called on an empty table.
  size_t findSlot(std::string_view Text, uint64_t Hash) const;

  /// Re-buckets into at least \p MinSlots power-of-two slots.
  void rehash(size_t MinSlots);

  std::deque<std::string> Strings;
  /// Open-addressing slots, linear probing, load factor <= 0.75. Each
  /// entry packs (32-bit hash fragment << 32) | symbol index; `EmptySlot`
  /// (all ones) marks a free slot — unambiguous because a real entry's low
  /// word is a valid index, never ~0.
  std::vector<uint64_t> Slots;
  static constexpr uint64_t EmptySlot = ~uint64_t(0);
};

} // namespace jackee

#endif // JACKEE_SUPPORT_SYMBOLTABLE_H
