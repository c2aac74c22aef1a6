//===- Hashing.h - Hash combinators -----------------------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small hash combinators for pairs and tuples of 32-bit ids, used by the
/// Datalog tuple store, the points-to context table and the flat tables of
/// `support/FlatMap.h`.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_SUPPORT_HASHING_H
#define JACKEE_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jackee {

/// Mixes \p Value into \p Seed (boost::hash_combine-style, 64-bit constants).
inline size_t hashCombine(size_t Seed, size_t Value) {
  return Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

/// Hashes a run of 32-bit words; used for Datalog tuples.
inline size_t hashWords(const uint32_t *Data, size_t Count) {
  size_t Seed = 0x12345678u;
  for (size_t I = 0; I != Count; ++I)
    Seed = hashCombine(Seed, Data[I]);
  return Seed;
}

/// Packs two 32-bit ids into one 64-bit key; handy for pair-keyed hash maps.
inline uint64_t packPair(uint32_t A, uint32_t B) {
  return (uint64_t(A) << 32) | uint64_t(B);
}

/// MurmurHash3's 64-bit finalizer: a bijection under which every input bit
/// flips every output bit with probability about one half, so keys that
/// differ only in their high (or only in their low) half spread over a
/// table's low bits. Chain it, `mix64(Seed ^ Word)`, to hash a run of ids.
inline uint64_t mix64(uint64_t Key) {
  Key ^= Key >> 33;
  Key *= 0xff51afd7ed558ccdULL;
  Key ^= Key >> 33;
  Key *= 0xc4ceb9fe1a85ec53ULL;
  Key ^= Key >> 33;
  return Key;
}

} // namespace jackee

#endif // JACKEE_SUPPORT_HASHING_H
