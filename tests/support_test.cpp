//===- support_test.cpp - Unit tests for the support library --------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/DenseSet.h"
#include "support/Env.h"
#include "support/FlatMap.h"
#include "support/Hashing.h"
#include "support/Id.h"
#include "support/SymbolTable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

using namespace jackee;

namespace {

using TestId = Id<struct TestTag>;
using OtherId = Id<struct OtherTag>;

TEST(IdTest, DefaultIsInvalid) {
  TestId Id;
  EXPECT_FALSE(Id.isValid());
  EXPECT_EQ(Id, TestId::invalid());
}

TEST(IdTest, ConstructedIsValid) {
  TestId Id(7);
  EXPECT_TRUE(Id.isValid());
  EXPECT_EQ(Id.index(), 7u);
}

TEST(IdTest, Comparison) {
  EXPECT_LT(TestId(1), TestId(2));
  EXPECT_EQ(TestId(3), TestId(3));
  EXPECT_NE(TestId(3), TestId(4));
}

TEST(IdTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<TestId, OtherId>,
                "ids with different tags must be different types");
}

TEST(IdTest, Hashable) {
  std::unordered_set<TestId> Set;
  Set.insert(TestId(1));
  Set.insert(TestId(1));
  Set.insert(TestId(2));
  EXPECT_EQ(Set.size(), 2u);
}

TEST(SymbolTableTest, InternReturnsSameSymbolForSameText) {
  SymbolTable Table;
  Symbol A = Table.intern("hello");
  Symbol B = Table.intern("hello");
  EXPECT_EQ(A, B);
  EXPECT_EQ(Table.size(), 1u);
}

TEST(SymbolTableTest, DistinctTextsGetDistinctSymbols) {
  SymbolTable Table;
  Symbol A = Table.intern("a");
  Symbol B = Table.intern("b");
  EXPECT_NE(A, B);
  EXPECT_EQ(Table.text(A), "a");
  EXPECT_EQ(Table.text(B), "b");
}

TEST(SymbolTableTest, LookupWithoutInterning) {
  SymbolTable Table;
  EXPECT_FALSE(Table.lookup("missing").isValid());
  Symbol A = Table.intern("present");
  EXPECT_EQ(Table.lookup("present"), A);
}

TEST(SymbolTableTest, StableTextAcrossGrowth) {
  SymbolTable Table;
  Symbol First = Table.intern("first");
  const std::string *TextBefore = &Table.text(First);
  // Force many insertions; deque storage must keep references stable.
  for (int I = 0; I != 10000; ++I)
    Table.intern("sym" + std::to_string(I));
  EXPECT_EQ(&Table.text(First), TextBefore);
  EXPECT_EQ(Table.text(First), "first");
}

TEST(SymbolTableTest, EmptyStringIsInternable) {
  SymbolTable Table;
  Symbol Empty = Table.intern("");
  EXPECT_TRUE(Empty.isValid());
  EXPECT_EQ(Table.text(Empty), "");
}

TEST(InsertOrderSetTest, InsertReportsNovelty) {
  InsertOrderSet Set;
  EXPECT_TRUE(Set.insert(1));
  EXPECT_FALSE(Set.insert(1));
  EXPECT_TRUE(Set.insert(2));
  EXPECT_EQ(Set.size(), 2u);
}

TEST(InsertOrderSetTest, IterationIsInsertionOrder) {
  InsertOrderSet Set;
  for (uint32_t V : {5u, 3u, 9u, 1u, 7u})
    Set.insert(V);
  std::vector<uint32_t> Seen(Set.begin(), Set.end());
  EXPECT_EQ(Seen, (std::vector<uint32_t>{5, 3, 9, 1, 7}));
}

TEST(InsertOrderSetTest, IndexingIsStableUnderInsertion) {
  InsertOrderSet Set;
  Set.insert(10);
  Set.insert(20);
  for (uint32_t I = 0; I != 1000; ++I)
    Set.insert(100 + I);
  EXPECT_EQ(Set[0], 10u);
  EXPECT_EQ(Set[1], 20u);
}

TEST(InsertOrderSetTest, Clear) {
  InsertOrderSet Set;
  for (uint32_t I = 0; I != 2 * InsertOrderSet::ScanLimit; ++I)
    Set.insert(I);
  Set.clear();
  EXPECT_TRUE(Set.empty());
  EXPECT_FALSE(Set.contains(1));
  EXPECT_TRUE(Set.insert(1));
}

/// Differential against a hash set plus an order vector. Sizes cover the
/// scan-only regime, the switch itself and sets far past it. Descending
/// ids size the bitset at the switch; ascending, random and small-first
/// ids keep growing it afterwards.
TEST(InsertOrderSetTest, RandomizedDifferentialAgainstHashSet) {
  constexpr uint32_t MaxId = 8192;
  std::mt19937 Rng(20201015);
  std::uniform_int_distribution<uint32_t> AnyId(0, MaxId);

  enum class Order { Descending, Ascending, Random, SmallThenLarge };
  for (Order O : {Order::Descending, Order::Ascending, Order::Random,
                  Order::SmallThenLarge}) {
    for (size_t Inserts :
         {InsertOrderSet::ScanLimit, InsertOrderSet::ScanLimit + 1,
          size_t(3000), size_t(12000)}) {
      SCOPED_TRACE("order=" + std::to_string(static_cast<int>(O)) +
                   " inserts=" + std::to_string(Inserts));
      InsertOrderSet Set;
      std::unordered_set<uint32_t> RefMembers;
      std::vector<uint32_t> RefOrder;
      for (size_t Step = 0; Step != Inserts; ++Step) {
        uint32_t Id = 0;
        switch (O) {
        case Order::Descending:
          Id = MaxId - static_cast<uint32_t>(Step % (MaxId + 1));
          break;
        case Order::Ascending:
          Id = static_cast<uint32_t>(Step * 3 % (MaxId + 1));
          break;
        case Order::Random:
          Id = AnyId(Rng);
          break;
        case Order::SmallThenLarge:
          // Small ids past the switch, then every id.
          Id = Step < 4 * InsertOrderSet::ScanLimit
                   ? static_cast<uint32_t>(Step % 40)
                   : AnyId(Rng);
          break;
        }
        bool RefNew = RefMembers.insert(Id).second;
        if (RefNew)
          RefOrder.push_back(Id);
        ASSERT_EQ(Set.insert(Id), RefNew) << "step " << Step;
        ASSERT_EQ(Set.size(), RefOrder.size()) << "step " << Step;
        ASSERT_TRUE(Set.contains(Id));
        // A probe that may or may not be a member, including ids past the
        // largest member and past the bitset's words.
        uint32_t Probe = AnyId(Rng) + (Step % 7 == 0 ? MaxId : 0);
        ASSERT_EQ(Set.contains(Probe), RefMembers.count(Probe) != 0)
            << "step " << Step << " probe " << Probe;
        size_t Last = RefOrder.size() - 1, Any = Step % RefOrder.size();
        ASSERT_EQ(Set[Last], RefOrder[Last]);
        ASSERT_EQ(Set[Any], RefOrder[Any]);
        ASSERT_TRUE(std::equal(Set.begin(), Set.end(), RefOrder.begin(),
                               RefOrder.end()))
            << "step " << Step;
      }
      for (uint32_t Id = 0; Id <= MaxId + 64; ++Id)
        ASSERT_EQ(Set.contains(Id), RefMembers.count(Id) != 0) << Id;
    }
  }
}

/// A bitset over \p Ids, in `insertBits`' layout.
std::vector<uint64_t> bitsOf(std::initializer_list<uint32_t> Ids,
                             size_t Words) {
  std::vector<uint64_t> Bits(Words, 0);
  for (uint32_t Id : Ids)
    Bits[Id / 64] |= uint64_t(1) << (Id % 64);
  return Bits;
}

/// Every id below \p Limit answers `contains` as \p Members says.
void expectMembers(const InsertOrderSet &Set,
                   const std::vector<uint32_t> &Members, uint32_t Limit) {
  EXPECT_EQ(Set.size(), Members.size());
  for (uint32_t Id = 0; Id != Limit; ++Id)
    EXPECT_EQ(Set.contains(Id),
              std::find(Members.begin(), Members.end(), Id) != Members.end())
        << Id;
}

TEST(InsertOrderSetTest, InsertBitsAppendsNewIdsInIdOrder) {
  InsertOrderSet Set;
  for (uint32_t V : {70u, 3u, 130u})
    Set.insert(V);
  EXPECT_TRUE(Set.insertBits(bitsOf({200, 3, 65, 130, 1}, 4)));
  std::vector<uint32_t> Seen(Set.begin(), Set.end());
  EXPECT_EQ(Seen, (std::vector<uint32_t>{70, 3, 130, 1, 65, 200}));
  expectMembers(Set, Seen, 300);
  // Plain inserts after a union keep the set exact.
  EXPECT_FALSE(Set.insert(65));
  EXPECT_TRUE(Set.insert(4));
  Seen.push_back(4);
  expectMembers(Set, Seen, 300);
}

TEST(InsertOrderSetTest, InsertBitsThatAddsNothingReturnsFalse) {
  InsertOrderSet Set;
  for (uint32_t V : {5u, 64u, 9u})
    Set.insert(V);
  EXPECT_FALSE(Set.insertBits(bitsOf({9, 64}, 2)));
  EXPECT_FALSE(Set.insertBits(std::vector<uint64_t>(3, 0)));
  EXPECT_FALSE(Set.insertBits({}));
  std::vector<uint32_t> Seen(Set.begin(), Set.end());
  EXPECT_EQ(Seen, (std::vector<uint32_t>{5, 64, 9}));
}

/// A set within the scan limit records its members in its bitset first, so
/// ids it holds are refused and the union may carry it past the limit.
TEST(InsertOrderSetTest, InsertBitsCarriesASmallSetPastTheScanLimit) {
  InsertOrderSet Set;
  std::vector<uint32_t> Members;
  for (uint32_t V = 0; V != InsertOrderSet::ScanLimit - 2; ++V) {
    Set.insert(3 * V);
    Members.push_back(3 * V);
  }
  // Scan-sized inserts hold no bitset.
  const size_t BytesBefore = Set.bytes();
  EXPECT_TRUE(Set.bits().empty());
  // A third of the incoming ids are members already.
  std::vector<uint64_t> Bits(2, 0);
  for (uint32_t V = 0; V != 12; ++V)
    Bits[(2 * V) / 64] |= uint64_t(1) << ((2 * V) % 64);
  EXPECT_TRUE(Set.insertBits(Bits));
  for (uint32_t V = 0; V != 12; ++V)
    if ((2 * V) % 3 != 0)
      Members.push_back(2 * V);
  EXPECT_GT(Set.size(), InsertOrderSet::ScanLimit);
  EXPECT_TRUE(std::equal(Set.begin(), Set.end(), Members.begin(),
                         Members.end()));
  expectMembers(Set, Members, 128);
  // The bitset reaches the largest member's word, and `bytes()` counts it.
  EXPECT_EQ(Set.bits().size(), 1u);
  EXPECT_GE(Set.bytes(), Set.size() * sizeof(uint32_t) + sizeof(uint64_t));
  EXPECT_GT(Set.bytes(), BytesBefore);
}

/// The incoming bitset may be longer than the set's own; the set's grows
/// only to the last word that adds an id.
TEST(InsertOrderSetTest, InsertBitsGrowsAShorterBitset) {
  InsertOrderSet Set;
  for (uint32_t V = 0; V != 2 * InsertOrderSet::ScanLimit; ++V)
    Set.insert(V);
  ASSERT_EQ(Set.bits().size(), 1u);
  std::vector<uint64_t> Bits = bitsOf({5, 300, 301}, 8);
  EXPECT_TRUE(Set.insertBits(Bits));
  EXPECT_EQ(Set.bits().size(), 5u);
  EXPECT_EQ(Set[Set.size() - 2], 300u);
  EXPECT_EQ(Set[Set.size() - 1], 301u);
  std::vector<uint32_t> Members(Set.begin(), Set.end());
  expectMembers(Set, Members, 512);
  EXPECT_GE(Set.bytes(), Set.size() * sizeof(uint32_t) +
                             Set.bits().size() * sizeof(uint64_t));
  EXPECT_FALSE(Set.insertBits(Bits));
}

TEST(HashingTest, PackPairIsInjectiveOnHalves) {
  EXPECT_NE(packPair(1, 2), packPair(2, 1));
  EXPECT_EQ(packPair(3, 4), packPair(3, 4));
}

TEST(HashingTest, HashWordsDependsOnOrder) {
  uint32_t A[] = {1, 2, 3};
  uint32_t B[] = {3, 2, 1};
  EXPECT_NE(hashWords(A, 3), hashWords(B, 3));
}

TEST(FlatMapTest, GrowsAcrossManyResizes) {
  // 16 slots at first, doubling at half load: 100,000 keys take 14 growths.
  FlatMap Map;
  std::mt19937_64 Rng(7);
  std::vector<uint64_t> Keys;
  std::unordered_set<uint64_t> Seen;
  while (Keys.size() != 100000) {
    uint64_t Key = Rng() >> 1; // never the reserved key
    if (Seen.insert(Key).second)
      Keys.push_back(Key);
  }
  for (uint32_t I = 0; I != Keys.size(); ++I) {
    auto [Value, Inserted] = Map.insert(Keys[I], I);
    ASSERT_TRUE(Inserted) << I;
    ASSERT_EQ(Value, I);
  }
  EXPECT_EQ(Map.size(), Keys.size());
  EXPECT_LE(Map.bytes(), 4 * Keys.size() * 16) << "at most 4 slots per key";
  for (uint32_t I = 0; I != Keys.size(); ++I) {
    ASSERT_EQ(Map.find(Keys[I]), I);
    auto [Value, Inserted] = Map.insert(Keys[I], 0);
    ASSERT_FALSE(Inserted) << "a present key keeps its first value";
    ASSERT_EQ(Value, I);
  }
  EXPECT_EQ(Map.size(), Keys.size());
}

TEST(FlatMapTest, KeysSharingAHalf) {
  // The solver's node kinds produce exactly these shapes: `packPair(A, 0)`
  // for array, static, throw and catch nodes, and pairs with a small
  // first half for var and field nodes.
  FlatMap Map;
  std::map<uint64_t, uint32_t> Ref;
  for (uint32_t I = 0; I != 5000; ++I)
    for (uint64_t Key : {packPair(I, 0), packPair(0, I), packPair(I, I)}) {
      uint32_t Next = static_cast<uint32_t>(Ref.size());
      auto [Value, Inserted] = Map.insert(Key, Next);
      auto [It, RefInserted] = Ref.emplace(Key, Next);
      ASSERT_EQ(Inserted, RefInserted) << Key;
      ASSERT_EQ(Value, It->second) << Key;
    }
  EXPECT_EQ(Map.size(), Ref.size());
  for (const auto &[Key, Value] : Ref)
    ASSERT_EQ(Map.find(Key), Value) << Key;
}

TEST(FlatMapTest, AbsentKeysAreNotFound) {
  FlatMap Map;
  EXPECT_EQ(Map.find(0), std::nullopt);
  EXPECT_EQ(Map.find(~uint64_t(0)), std::nullopt);
  for (uint32_t I = 0; I != 1000; ++I)
    Map.insert(packPair(I, 2 * I), I);
  for (uint32_t I = 0; I != 1000; ++I) {
    EXPECT_EQ(Map.find(packPair(I, 2 * I + 1)), std::nullopt) << I;
    EXPECT_EQ(Map.find(packPair(2 * I + 1, I)), std::nullopt) << I;
  }
  EXPECT_EQ(Map.find(~uint64_t(0)), std::nullopt);
  EXPECT_EQ(Map.size(), 1000u) << "lookups insert nothing";
}

TEST(FlatMapTest, ReservedEmptyKey) {
  // An empty slot holds ~0, which is also `packPair` of two invalid ids;
  // the map still stores it, beside the slot array.
  const uint64_t Reserved = packPair(~uint32_t(0), ~uint32_t(0));
  FlatMap Map;
  EXPECT_EQ(Map.insert(Reserved, 41), std::make_pair(41u, true));
  EXPECT_EQ(Map.insert(Reserved, 99), std::make_pair(41u, false));
  EXPECT_EQ(Map.find(Reserved), 41u);
  EXPECT_EQ(Map.size(), 1u);
  for (uint32_t I = 0; I != 100; ++I) // grows the slot array several times
    Map.insert(I, I);
  EXPECT_EQ(Map.find(Reserved), 41u);
  EXPECT_EQ(Map.find(0), 0u);
  EXPECT_EQ(Map.size(), 101u);
}

TEST(FlatIndexSetTest, CollidingHashesSurviveEraseAndGrowth) {
  // Keys live outside the set, as a relation's tuples do. A weak hash with
  // four values, all homed in the last four slots, forces long probe runs
  // that wrap around the slot array, so erase has to shift members back
  // across the wrap.
  std::vector<uint64_t> Keys;
  std::set<uint64_t> Live;
  FlatIndexSet Set;
  auto HashOf = [](uint64_t Key) { return ~static_cast<uint32_t>(Key % 4); };
  auto Find = [&](uint64_t Key) {
    return Set.find(HashOf(Key), [&](uint32_t I) { return Keys[I] == Key; });
  };
  std::mt19937 Rng(11);
  for (int Step = 0; Step != 4000; ++Step) {
    uint64_t Key = Rng() % 300;
    if (Live.count(Key) && Rng() % 2 == 0) {
      uint32_t Member = Find(Key);
      ASSERT_NE(Member, FlatIndexSet::NoIndex) << Key;
      ASSERT_TRUE(Set.erase(HashOf(Key), Member));
      ASSERT_FALSE(Set.erase(HashOf(Key), Member)) << "erased twice";
      Live.erase(Key);
    } else {
      uint32_t Index = static_cast<uint32_t>(Keys.size());
      Keys.push_back(Key);
      uint32_t Existing = Set.insert(
          HashOf(Key), Index, [&](uint32_t I) { return Keys[I] == Key; });
      ASSERT_EQ(Existing == FlatIndexSet::NoIndex, Live.insert(Key).second);
    }
    ASSERT_EQ(Set.size(), Live.size());
  }
  for (uint64_t Key = 0; Key != 300; ++Key) {
    uint32_t Member = Find(Key);
    ASSERT_EQ(Member != FlatIndexSet::NoIndex, Live.count(Key) != 0) << Key;
    if (Member != FlatIndexSet::NoIndex) {
      ASSERT_EQ(Keys[Member], Key);
    }
  }
}

TEST(EnvTest, SwitchVarReadsOffOnAndPath) {
  const char *Name = "JACKEE_TEST_SWITCH";
  ::unsetenv(Name);
  EXPECT_FALSE(env::switchVar(Name).On);
  for (const char *Off : {"", "0", "false"}) {
    ::setenv(Name, Off, 1);
    env::Switch S = env::switchVar(Name);
    EXPECT_FALSE(S.On) << "'" << Off << "'";
    EXPECT_EQ(S.Path, "") << "'" << Off << "'";
    EXPECT_FALSE(env::flagVar(Name)) << "'" << Off << "'";
  }
  for (const char *On : {"1", "true"}) {
    ::setenv(Name, On, 1);
    env::Switch S = env::switchVar(Name);
    EXPECT_TRUE(S.On) << On;
    EXPECT_EQ(S.Path, "") << On;
    EXPECT_TRUE(env::flagVar(Name)) << On;
  }
  // Any other value is on and names a path; a plain flag ignores it.
  ::setenv(Name, "out/trace.json", 1);
  env::Switch S = env::switchVar(Name);
  EXPECT_TRUE(S.On);
  EXPECT_EQ(S.Path, "out/trace.json");
  EXPECT_FALSE(env::flagVar(Name));
  ::unsetenv(Name);
}

TEST(EnvTest, ResolveWorkerCountPrefersExplicitThenEnv) {
  const char *Name = "JACKEE_TEST_WORKERS";
  // An explicit count wins over a valid environment value, clamped to 256.
  ::setenv(Name, "3", 1);
  EXPECT_EQ(env::resolveWorkerCount(2, Name), 2u);
  EXPECT_EQ(env::resolveWorkerCount(1000, Name), 256u);
  // Without one, a valid value is used, both bounds included.
  EXPECT_EQ(env::resolveWorkerCount(0, Name), 3u);
  ::setenv(Name, "1", 1);
  EXPECT_EQ(env::resolveWorkerCount(0, Name), 1u);
  ::setenv(Name, "256", 1);
  EXPECT_EQ(env::resolveWorkerCount(0, Name), 256u);
  ::unsetenv(Name);
}

TEST(EnvTest, ResolveWorkerCountIgnoresMalformedValues) {
  const char *Name = "JACKEE_TEST_WORKERS";
  ::unsetenv(Name);
  unsigned HW = std::thread::hardware_concurrency();
  unsigned Default = HW == 0 ? 1u : std::min(HW, 256u);
  EXPECT_EQ(env::resolveWorkerCount(0, Name), Default);
  // Junk and out-of-range values fall back to the hardware default.
  for (const char *Bad :
       {"", "junk", "4x", "0", "-2", "257", "99999999999999999999"}) {
    ::setenv(Name, Bad, 1);
    EXPECT_EQ(env::resolveWorkerCount(0, Name), Default) << "'" << Bad << "'";
  }
  ::unsetenv(Name);
}

} // namespace
