//===- SymbolTable.cpp ----------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/SymbolTable.h"

#include <functional>

using namespace jackee;

namespace {

uint64_t hashText(std::string_view Text) {
  return std::hash<std::string_view>()(Text);
}

/// The 32-bit fragment stored next to the index so probe chains skip the
/// string comparison for almost every non-matching slot.
uint32_t fragmentOf(uint64_t Hash) {
  return static_cast<uint32_t>(Hash ^ (Hash >> 32));
}

} // namespace

size_t SymbolTable::findSlot(std::string_view Text, uint64_t Hash) const {
  const size_t Mask = Slots.size() - 1;
  const uint32_t Fragment = fragmentOf(Hash);
  size_t P = static_cast<size_t>(Hash) & Mask;
  for (;;) {
    uint64_t Entry = Slots[P];
    if (Entry == EmptySlot)
      return P;
    if (static_cast<uint32_t>(Entry >> 32) == Fragment &&
        Strings[static_cast<uint32_t>(Entry)] == Text)
      return P;
    P = (P + 1) & Mask;
  }
}

void SymbolTable::rehash(size_t MinSlots) {
  size_t N = 16;
  while (N < MinSlots)
    N <<= 1;
  std::vector<uint64_t> NewSlots(N, EmptySlot);
  const size_t Mask = N - 1;
  for (uint32_t I = 0; I != Strings.size(); ++I) {
    uint64_t Hash = hashText(Strings[I]);
    size_t P = static_cast<size_t>(Hash) & Mask;
    while (NewSlots[P] != EmptySlot)
      P = (P + 1) & Mask;
    NewSlots[P] = (static_cast<uint64_t>(fragmentOf(Hash)) << 32) | I;
  }
  Slots = std::move(NewSlots);
}

void SymbolTable::reserve(size_t N) {
  // Keep the load factor at or below 3/4 for N entries.
  if (N * 4 > Slots.size() * 3)
    rehash(N * 4 / 3 + 1);
}

Symbol SymbolTable::intern(std::string_view Text) {
  reserve(Strings.size() + 1);
  uint64_t Hash = hashText(Text);
  size_t P = findSlot(Text, Hash);
  if (Slots[P] != EmptySlot)
    return Symbol(static_cast<uint32_t>(Slots[P]));

  uint32_t Index = static_cast<uint32_t>(Strings.size());
  Strings.emplace_back(Text);
  Slots[P] = (static_cast<uint64_t>(fragmentOf(Hash)) << 32) | Index;
  return Symbol(Index);
}

Symbol SymbolTable::internNew(std::string_view Text) {
  reserve(Strings.size() + 1);
  uint64_t Hash = hashText(Text);
  size_t P = findSlot(Text, Hash);
  if (Slots[P] != EmptySlot)
    return Symbol::invalid();

  uint32_t Index = static_cast<uint32_t>(Strings.size());
  Strings.emplace_back(Text);
  Slots[P] = (static_cast<uint64_t>(fragmentOf(Hash)) << 32) | Index;
  return Symbol(Index);
}

Symbol SymbolTable::lookup(std::string_view Text) const {
  if (Slots.empty())
    return Symbol::invalid();
  size_t P = findSlot(Text, hashText(Text));
  if (Slots[P] == EmptySlot)
    return Symbol::invalid();
  return Symbol(static_cast<uint32_t>(Slots[P]));
}
