//===- DenseSet.h - Insertion-ordered sets of dense ids ---------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `InsertOrderSet` — a set of dense `uint32_t` ids with *deterministic*
/// (insertion-order) iteration. Points-to sets and the reachable-method set
/// iterate these, and analysis output must not depend on hash table layout
/// (see "Beware of non-determinism" in the LLVM standards).
///
/// The insertion-order vector *is* the set. Small sets answer membership by
/// scanning it; larger ones by a bitset over ids, so a set never allocates
/// per element. Ids must be dense (a bitset word per 64 ids up to the
/// largest member): value, method and type ids are; packed id pairs are not.
/// A whole bitset of ids joins a set word by word (`insertBits`).
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_SUPPORT_DENSESET_H
#define JACKEE_SUPPORT_DENSESET_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace jackee {

/// A set of dense ids with insertion-ordered iteration.
///
/// While the set holds at most `ScanLimit` ids, `contains` scans the order
/// vector; once it grows past that, every member is also recorded in a
/// bitset that grows on demand to the largest id inserted. `contains` is
/// read-only, so concurrent readers of a set nobody is inserting into are
/// safe.
class InsertOrderSet {
public:
  using const_iterator = std::vector<uint32_t>::const_iterator;

  /// Largest size at which membership scans the order vector.
  static constexpr size_t ScanLimit = 16;

  /// Inserts \p Id. \returns true if it was not already present.
  bool insert(uint32_t Id) {
    if (contains(Id))
      return false;
    Order.push_back(Id);
    if (Order.size() == ScanLimit + 1) {
      for (uint32_t Member : Order)
        setBit(Member);
    } else if (Order.size() > ScanLimit) {
      setBit(Id);
    }
    return true;
  }

  /// Inserts every id set in \p Words (bit `Id % 64` of word `Id / 64`)
  /// that the set lacks, appending the new ids in id order. A set of at
  /// most `ScanLimit` ids first records its members in its bitset (its
  /// `insert`s leave that bitset alone until it outgrows the limit).
  /// \returns true if any id was added.
  bool insertBits(std::span<const uint64_t> Words) {
    if (Order.size() <= ScanLimit)
      for (uint32_t Member : Order)
        setBit(Member);
    const size_t Before = Order.size();
    for (size_t W = 0; W != Words.size(); ++W) {
      uint64_t New = Words[W] & ~(W < Bits.size() ? Bits[W] : 0);
      if (New == 0)
        continue;
      if (W >= Bits.size())
        Bits.resize(W + 1, 0);
      Bits[W] |= New;
      for (; New != 0; New &= New - 1)
        Order.push_back(static_cast<uint32_t>(W * 64 + std::countr_zero(New)));
    }
    return Order.size() != Before;
  }

  /// The membership bitset, in `insertBits`' layout. Exact only while the
  /// set holds more than `ScanLimit` ids.
  std::span<const uint64_t> bits() const { return Bits; }

  bool contains(uint32_t Id) const {
    if (Order.size() <= ScanLimit)
      return std::find(Order.begin(), Order.end(), Id) != Order.end();
    size_t Word = Id / 64;
    return Word < Bits.size() && (Bits[Word] >> (Id % 64) & 1) != 0;
  }

  size_t size() const { return Order.size(); }
  bool empty() const { return Order.empty(); }

  /// Heap bytes held: the order vector's and the bitset's capacities.
  size_t bytes() const {
    return Order.capacity() * sizeof(uint32_t) +
           Bits.capacity() * sizeof(uint64_t);
  }

  const_iterator begin() const { return Order.begin(); }
  const_iterator end() const { return Order.end(); }

  /// Element \p I in insertion order. Stable under later insertions, which is
  /// what lets delta-based loops use an index cursor instead of iterators.
  uint32_t operator[](size_t I) const { return Order[I]; }

  void clear() {
    Order.clear();
    Bits.clear();
  }

private:
  void setBit(uint32_t Id) {
    size_t Word = Id / 64;
    if (Word >= Bits.size())
      Bits.resize(Word + 1, 0);
    Bits[Word] |= uint64_t(1) << (Id % 64);
  }

  std::vector<uint32_t> Order;
  /// Empty until the set outgrows `ScanLimit` or takes an `insertBits`.
  std::vector<uint64_t> Bits;
};

} // namespace jackee

#endif // JACKEE_SUPPORT_DENSESET_H
