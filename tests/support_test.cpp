//===- support_test.cpp - Unit tests for the support library --------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/DenseSet.h"
#include "support/Env.h"
#include "support/Hashing.h"
#include "support/Id.h"
#include "support/SymbolTable.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
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
  InsertOrderSet<int> Set;
  EXPECT_TRUE(Set.insert(1));
  EXPECT_FALSE(Set.insert(1));
  EXPECT_TRUE(Set.insert(2));
  EXPECT_EQ(Set.size(), 2u);
}

TEST(InsertOrderSetTest, IterationIsInsertionOrder) {
  InsertOrderSet<int> Set;
  for (int V : {5, 3, 9, 1, 7})
    Set.insert(V);
  std::vector<int> Seen(Set.begin(), Set.end());
  EXPECT_EQ(Seen, (std::vector<int>{5, 3, 9, 1, 7}));
}

TEST(InsertOrderSetTest, IndexingIsStableUnderInsertion) {
  InsertOrderSet<int> Set;
  Set.insert(10);
  Set.insert(20);
  const int &Ref = Set[0];
  for (int I = 0; I != 1000; ++I)
    Set.insert(100 + I);
  EXPECT_EQ(Set[0], 10);
  EXPECT_EQ(Set[1], 20);
  (void)Ref;
}

TEST(InsertOrderSetTest, Clear) {
  InsertOrderSet<int> Set;
  Set.insert(1);
  Set.clear();
  EXPECT_TRUE(Set.empty());
  EXPECT_TRUE(Set.insert(1));
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

} // namespace
