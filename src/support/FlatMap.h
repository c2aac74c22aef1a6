//===- FlatMap.h - Open-addressed tables without per-entry nodes -*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two open-addressed, linear-probing hash tables that keep their entries in
/// one flat slot array: they allocate once per growth, never per entry, and
/// free in one call.
///
///   - `FlatMap` maps 64-bit keys to 32-bit values. The points-to solver
///     interns nodes, values, context-qualified methods, call-graph edges
///     and cast statements through it, keyed by `packPair` of two ids.
///   - `FlatIndexSet` is a set of 32-bit indexes whose keys live outside
///     the table, such as a Datalog relation's tuples in its flat store.
///     The caller passes each key's hash and an equality test, so a
///     candidate key is probed where it lies, without being stored first.
///
/// Neither table iterates. Callers that need an order keep a dense vector
/// beside the table, so no output depends on the slot layout.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_SUPPORT_FLATMAP_H
#define JACKEE_SUPPORT_FLATMAP_H

#include "support/Hashing.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace jackee {

/// A map from 64-bit keys to 32-bit values. Keys are placed by `mix64`, so
/// keys that share their low or their high 32 bits (`packPair(A, 0)`,
/// `packPair(0, B)`) spread over the whole table. The table holds at most
/// half as many keys as it has slots. An empty slot holds the reserved key
/// `~0`; that key, if inserted, lives in a slot of its own beside the array.
class FlatMap {
public:
  /// Maps \p Key to \p Value unless \p Key is already present.
  /// \returns the value \p Key now maps to, and true if it was inserted.
  std::pair<uint32_t, bool> insert(uint64_t Key, uint32_t Value) {
    if (Key == EmptyKey) {
      if (HasEmptyKey)
        return {EmptyKeyValue, false};
      HasEmptyKey = true;
      EmptyKeyValue = Value;
      ++Count;
      return {Value, true};
    }
    if (Slots.empty())
      grow(MinSlots);
    size_t I = home(Key);
    for (; Slots[I].Key != EmptyKey; I = next(I))
      if (Slots[I].Key == Key)
        return {Slots[I].Value, false};
    if ((Count + 1) * 2 > Slots.size()) {
      grow(Slots.size() * 2);
      I = freeSlot(Key);
    }
    Slots[I] = {Key, Value};
    ++Count;
    return {Value, true};
  }

  /// \returns the value \p Key maps to, if present.
  std::optional<uint32_t> find(uint64_t Key) const {
    if (Key == EmptyKey)
      return HasEmptyKey ? std::optional<uint32_t>(EmptyKeyValue)
                         : std::nullopt;
    if (Slots.empty())
      return std::nullopt;
    for (size_t I = home(Key); Slots[I].Key != EmptyKey; I = next(I))
      if (Slots[I].Key == Key)
        return Slots[I].Value;
    return std::nullopt;
  }

  size_t size() const { return Count; }

  /// Heap bytes of the slot array.
  size_t bytes() const { return Slots.capacity() * sizeof(Slot); }

private:
  static constexpr uint64_t EmptyKey = ~uint64_t(0);
  static constexpr size_t MinSlots = 16;

  struct Slot {
    uint64_t Key;
    uint32_t Value;
  };

  size_t home(uint64_t Key) const { return mix64(Key) & (Slots.size() - 1); }
  size_t next(size_t I) const { return (I + 1) & (Slots.size() - 1); }
  size_t freeSlot(uint64_t Key) const {
    size_t I = home(Key);
    while (Slots[I].Key != EmptyKey)
      I = next(I);
    return I;
  }

  void grow(size_t NewSlots) {
    std::vector<Slot> Old(NewSlots, Slot{EmptyKey, 0});
    Old.swap(Slots);
    for (const Slot &S : Old)
      if (S.Key != EmptyKey)
        Slots[freeSlot(S.Key)] = S;
  }

  std::vector<Slot> Slots; ///< a power-of-two count, or none
  size_t Count = 0;        ///< keys held, the reserved key included
  bool HasEmptyKey = false;
  uint32_t EmptyKeyValue = 0;
};

/// A set of 32-bit indexes (any value but `NoIndex`) whose keys are stored
/// by the caller. Every operation takes the probed key's hash, which must
/// be well mixed in its low bits (the low half of a `mix64` chain is), and
/// lookups an `Equal(Index)` test that says whether member `Index` has the
/// probed key. A slot keeps its member's hash, so the set grows and erases
/// without reading keys. The set holds at most half as many members as it
/// has slots; `erase` shifts later members back instead of leaving
/// tombstones.
class FlatIndexSet {
public:
  /// Marks an empty slot, and the "absent" result of `find` and `insert`.
  static constexpr uint32_t NoIndex = ~uint32_t(0);

  /// \returns the member whose key equals the probed one, or `NoIndex`.
  template <typename EqualFn>
  uint32_t find(uint32_t Hash, EqualFn &&Equal) const {
    if (Slots.empty())
      return NoIndex;
    for (size_t I = home(Hash); Slots[I].Index != NoIndex; I = next(I))
      if (Slots[I].Hash == Hash && Equal(Slots[I].Index))
        return Slots[I].Index;
    return NoIndex;
  }

  /// Adds \p Index, whose key hashes to \p Hash, unless a member with an
  /// equal key is present. \returns that member, or `NoIndex` if \p Index
  /// was added.
  template <typename EqualFn>
  uint32_t insert(uint32_t Hash, uint32_t Index, EqualFn &&Equal) {
    assert(Index != NoIndex && "the empty-slot index cannot be a member");
    if (Slots.empty())
      grow(MinSlots);
    size_t I = home(Hash);
    for (; Slots[I].Index != NoIndex; I = next(I))
      if (Slots[I].Hash == Hash && Equal(Slots[I].Index))
        return Slots[I].Index;
    if ((Count + 1) * 2 > Slots.size()) {
      grow(Slots.size() * 2);
      I = freeSlot(Hash);
    }
    Slots[I] = {Index, Hash};
    ++Count;
    return NoIndex;
  }

  /// Removes member \p Index, whose key hashes to \p Hash.
  /// \returns false if it was not a member.
  bool erase(uint32_t Hash, uint32_t Index) {
    if (Slots.empty())
      return false;
    size_t Hole = home(Hash);
    for (; Slots[Hole].Index != Index; Hole = next(Hole))
      if (Slots[Hole].Index == NoIndex)
        return false;
    // Backward-shift: move each later member of the probe run into the
    // hole when the hole lies on its path from its home slot.
    const size_t Mask = Slots.size() - 1;
    for (size_t I = next(Hole); Slots[I].Index != NoIndex; I = next(I)) {
      size_t Home = home(Slots[I].Hash);
      if (((I - Home) & Mask) >= ((I - Hole) & Mask)) {
        Slots[Hole] = Slots[I];
        Hole = I;
      }
    }
    Slots[Hole] = {NoIndex, 0};
    --Count;
    return true;
  }

  /// Sizes the slot array for \p Members members without further growth.
  void reserve(size_t Members) {
    size_t Want = MinSlots;
    while (Want < Members * 2)
      Want *= 2;
    if (Want > Slots.size())
      grow(Want);
  }

  size_t size() const { return Count; }

  /// Heap bytes of the slot array.
  size_t bytes() const { return Slots.capacity() * sizeof(Slot); }

private:
  static constexpr size_t MinSlots = 16;

  struct Slot {
    uint32_t Index;
    uint32_t Hash;
  };

  size_t home(uint32_t Hash) const { return Hash & (Slots.size() - 1); }
  size_t next(size_t I) const { return (I + 1) & (Slots.size() - 1); }
  size_t freeSlot(uint32_t Hash) const {
    size_t I = home(Hash);
    while (Slots[I].Index != NoIndex)
      I = next(I);
    return I;
  }

  void grow(size_t NewSlots) {
    std::vector<Slot> Old(NewSlots, Slot{NoIndex, 0});
    Old.swap(Slots);
    for (const Slot &S : Old)
      if (S.Index != NoIndex)
        Slots[freeSlot(S.Hash)] = S;
  }

  std::vector<Slot> Slots; ///< a power-of-two count, or none
  size_t Count = 0;
};

} // namespace jackee

#endif // JACKEE_SUPPORT_FLATMAP_H
