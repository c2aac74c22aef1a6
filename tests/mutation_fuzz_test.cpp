//===- mutation_fuzz_test.cpp - Byte-flip fuzzing of external inputs ------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Deterministic mutation fuzzing of the three input formats that come from
// outside the program: `.jks` base-program images, XML configuration files
// and framework rule text. Each test flips a few bits of real inputs under
// a fixed seed and requires every consumer to return a result or a
// diagnostic; a crash, a hang or a sanitizer report fails the test.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "datalog/Evaluator.h"
#include "datalog/Parser.h"
#include "facts/Extractor.h"
#include "frameworks/Rules.h"
#include "snapshot/Snapshot.h"
#include "synth/SynthApp.h"
#include "xml/Xml.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

using namespace jackee;

namespace {

/// Flips 1–4 random bits of \p Bytes at offsets in [\p From, size).
template <typename ByteVector>
void flipBits(ByteVector &Bytes, size_t From, std::mt19937 &Rng) {
  using Byte = typename ByteVector::value_type;
  std::uniform_int_distribution<size_t> Offset(From, Bytes.size() - 1);
  for (unsigned Flips = 1 + Rng() % 4; Flips != 0; --Flips) {
    Byte &B = Bytes[Offset(Rng)];
    B = static_cast<Byte>(B ^ (1u << (Rng() % 8)));
  }
}

//===----------------------------------------------------------------------===//
// .jks base-program images
//===----------------------------------------------------------------------===//

/// Where the header keeps the payload digest: after the magic (8 bytes),
/// the format version (4), the collection model (4) and the payload size
/// (8).
constexpr size_t DigestOffset = 24;

/// Re-computes the payload digest and writes it into the header, so a
/// mutant gets past the digest check to the decoder's structural checks.
/// The fold is the image format's: FNV-1a-64 over little-endian 64-bit
/// words, the last word zero-padded.
void reseal(std::vector<uint8_t> &Image) {
  uint64_t Hash = 1469598103934665603ull;
  for (size_t I = snapshot::HeaderBytes; I < Image.size(); I += 8) {
    uint64_t Word = 0;
    for (size_t J = 0; J != 8 && I + J < Image.size(); ++J)
      Word |= static_cast<uint64_t>(Image[I + J]) << (8 * J);
    Hash ^= Word;
    Hash *= 1099511628211ull;
  }
  for (size_t J = 0; J != 8; ++J)
    Image[DigestOffset + J] = static_cast<uint8_t>(Hash >> (8 * J));
}

class TempDir {
public:
  TempDir() {
    char Buf[] = "/tmp/jackee-fuzz-XXXXXX";
    const char *P = ::mkdtemp(Buf);
    EXPECT_NE(P, nullptr);
    Path = P ? P : "";
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// Mutates \p Mutants re-sealed copies of \p Model's image. Each must decode
/// or come back with a warning; each that decodes is then loaded from a
/// store directory and runs a petstore cell of \p Kind (an analysis on that
/// model) to a result.
void fuzzImage(javalib::CollectionModel Model, core::AnalysisKind Kind,
               unsigned Seed, unsigned Mutants) {
  ASSERT_EQ(core::collectionModel(Kind), Model);
  const std::vector<uint8_t> Image =
      snapshot::serialize(snapshot::buildBase(Model), Model);
  std::vector<uint8_t> Resealed = Image;
  reseal(Resealed);
  ASSERT_EQ(Resealed, Image) << "the test's digest fold drifted";

  TempDir Dir;
  const std::string Path = snapshot::snapshotPath(Dir.path(), Model);
  std::mt19937 Rng(Seed);
  unsigned Decoded = 0;
  for (unsigned I = 0; I != Mutants; ++I) {
    std::vector<uint8_t> Mutant = Image;
    flipBits(Mutant, snapshot::HeaderBytes, Rng);
    reseal(Mutant);
    snapshot::LoadResult R = snapshot::deserialize(Mutant, Model);
    if (!R.ok()) {
      EXPECT_FALSE(R.Warning.empty()) << "mutant " << I;
      continue;
    }
    ++Decoded;
    {
      std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
      Out.write(reinterpret_cast<const char *>(Mutant.data()),
                static_cast<std::streamsize>(Mutant.size()));
      ASSERT_TRUE(Out.good());
    }
    core::SessionOptions SO;
    SO.Jobs = 1;
    SO.SnapshotDir = Dir.path();
    core::AnalysisSession Session(SO);
    core::AnalysisResult Cell = Session.run(synth::petstoreApp(), Kind);
    EXPECT_TRUE(Cell.ok() || !Cell.error().Message.empty()) << "mutant " << I;
    EXPECT_EQ(Session.cacheStats().SnapshotLoads, 1u) << "mutant " << I;
  }
  // Both outcomes must occur, or the loop is not reaching the decoder.
  ::testing::Test::RecordProperty("decoded", static_cast<int>(Decoded));
  EXPECT_GT(Decoded, 0u);
  EXPECT_LT(Decoded, Mutants);
}

TEST(MutationFuzz, JksImageOriginalJdk8) {
  fuzzImage(javalib::CollectionModel::OriginalJdk8, core::AnalysisKind::TwoObjH,
            /*Seed=*/77, /*Mutants=*/400);
}

TEST(MutationFuzz, JksImageOriginalNoTreeNodes) {
  fuzzImage(javalib::CollectionModel::OriginalNoTreeNodes,
            core::AnalysisKind::NoTreeNode2ObjH, /*Seed=*/78,
            /*Mutants=*/400);
}

TEST(MutationFuzz, JksImageSoundModulo) {
  fuzzImage(javalib::CollectionModel::SoundModulo,
            core::AnalysisKind::Mod2ObjH, /*Seed=*/79, /*Mutants=*/400);
}

//===----------------------------------------------------------------------===//
// XML configuration files
//===----------------------------------------------------------------------===//

/// Every configuration file the synthetic applications ship.
std::vector<std::string> shippedConfigs() {
  const std::vector<uint8_t> Image = snapshot::serialize(
      snapshot::buildBase(javalib::CollectionModel::SoundModulo),
      javalib::CollectionModel::SoundModulo);
  std::vector<core::Application> Apps = synth::allBenchmarks();
  Apps.push_back(synth::petstoreApp());
  std::vector<std::string> Configs;
  for (const core::Application &App : Apps) {
    snapshot::LoadResult Base =
        snapshot::deserialize(Image, javalib::CollectionModel::SoundModulo);
    EXPECT_TRUE(Base.ok()) << Base.Warning;
    if (!Base.ok())
      return Configs;
    for (auto &[Name, Text] :
         App.Populate(*Base.Data->Base, Base.Data->Lib, Base.Data->Frameworks))
      Configs.push_back(std::move(Text));
  }
  return Configs;
}

TEST(MutationFuzz, ConfigXml) {
  const std::vector<std::string> Seeds = shippedConfigs();
  ASSERT_FALSE(Seeds.empty());
  SymbolTable Symbols;
  datalog::Database DB(Symbols);
  facts::Extractor Facts(DB, facts::allRelations());
  std::mt19937 Rng(/*seed=*/78);
  unsigned Parsed = 0;
  constexpr unsigned Mutants = 2000;
  for (unsigned I = 0; I != Mutants; ++I) {
    std::string Mutant = Seeds[Rng() % Seeds.size()];
    flipBits(Mutant, 0, Rng);
    xml::ParseResult R = xml::Parser::parse(Mutant);
    if (!R.ok()) {
      EXPECT_FALSE(R.Error.empty()) << "mutant " << I;
      EXPECT_LE(R.ErrorOffset, Mutant.size()) << "mutant " << I;
      continue;
    }
    ++Parsed;
    Facts.extractXml(*R.Doc, "mutant" + std::to_string(I) + ".xml");
  }
  RecordProperty("parsed", static_cast<int>(Parsed));
  EXPECT_GT(Parsed, 0u);
  EXPECT_LT(Parsed, Mutants);
}

//===----------------------------------------------------------------------===//
// Rule text
//===----------------------------------------------------------------------===//

TEST(MutationFuzz, RuleText) {
  // The database already declares the base relations and the vocabulary,
  // as a framework manager's does when `Application::ExtraRules` arrive;
  // otherwise nearly every mutant would stop at an undeclared relation.
  SymbolTable Symbols;
  datalog::Database DB(Symbols);
  facts::declareSchema(DB);
  datalog::RuleSet Vocabulary;
  datalog::ParserResult Base = datalog::parseRules(
      DB, Vocabulary, frameworks::VOCABULARY, "vocabulary.dl");
  ASSERT_TRUE(Base.Ok) << Base.Error;

  const std::vector<std::string> Seeds = {
      frameworks::FRAMEWORK_SERVLET, frameworks::FRAMEWORK_SPRING,
      frameworks::FRAMEWORK_EJB,     frameworks::FRAMEWORK_JAXRS,
      frameworks::FRAMEWORK_STRUTS,  frameworks::BASELINE_SERVLET};
  std::mt19937 Rng(/*seed=*/79);
  unsigned Parsed = 0;
  constexpr unsigned Mutants = 2000;
  for (unsigned I = 0; I != Mutants; ++I) {
    std::string Mutant = Seeds[Rng() % Seeds.size()];
    flipBits(Mutant, 0, Rng);
    datalog::RuleSet Rules;
    datalog::ParserResult R =
        datalog::parseRules(DB, Rules, Mutant, "mutant.dl");
    if (!R.Ok) {
      EXPECT_FALSE(R.Error.empty()) << "mutant " << I;
      continue;
    }
    ++Parsed;
    // A parsed mutant reaches stratification, as `prepare()` would run it.
    datalog::Evaluator Eval(DB, Rules);
    (void)Eval.validate();
  }
  RecordProperty("parsed", static_cast<int>(Parsed));
  EXPECT_GT(Parsed, 0u);
  EXPECT_LT(Parsed, Mutants);
}

} // namespace
