//===- snapshot_test.cpp - AOT snapshot store tests ------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Covers the base-program store (src/snapshot/): serialization
// round trips byte-identically, a session cold-started from the store is
// bit-identical (digest and explain trees) to one that ran the builders,
// and every rejection path — truncation, bad
// magic, stale format version, payload corruption, a well-digested image
// with a malformed statement, catch clause or type-table entry — falls back
// to the builders cleanly instead of crashing or silently diverging.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "provenance/Explain.h"
#include "snapshot/Snapshot.h"
#include "synth/SynthApp.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace jackee;
using namespace jackee::core;
using namespace jackee::synth;

namespace {

/// Self-cleaning mkdtemp directory for store files.
class TempDir {
public:
  TempDir() {
    char Buf[] = "/tmp/jackee-snapshot-XXXXXX";
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

/// Scoped environment override.
class EnvGuard {
public:
  EnvGuard(const char *Name, const std::string &Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    ::setenv(Name, Value.c_str(), 1);
  }
  ~EnvGuard() {
    if (Saved.empty())
      ::unsetenv(Name);
    else
      ::setenv(Name, Saved.c_str(), 1);
  }

private:
  const char *Name;
  std::string Saved;
};

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  EXPECT_TRUE(Out.good()) << Path;
}

/// Concatenated explain trees of every exercised entry point — the
/// strongest per-cell equality witness we have besides the digest.
std::string explainAll(AnalysisCell &Cell) {
  std::string Error;
  std::vector<provenance::DerivationNode> Trees =
      Cell.explain("ExercisedEntryPoint", Error);
  EXPECT_EQ(Error, "");
  std::string Out;
  for (const provenance::DerivationNode &Tree : Trees)
    Out += provenance::Explainer::renderText(Tree);
  return Out;
}

/// The semantic (symbol-id-insensitive, non-wall-clock) metric fields two
/// equivalent runs must agree on.
void expectSameSemantics(const Metrics &A, const Metrics &B) {
  EXPECT_EQ(A.App, B.App);
  EXPECT_EQ(A.Analysis, B.Analysis);
  EXPECT_EQ(A.ReachableMethodsTotal, B.ReachableMethodsTotal);
  EXPECT_EQ(A.AppReachableMethods, B.AppReachableMethods);
  EXPECT_EQ(A.CallGraphEdges, B.CallGraphEdges);
  EXPECT_EQ(A.VptTuplesTotal, B.VptTuplesTotal);
  EXPECT_EQ(A.VptTuplesJavaUtil, B.VptTuplesJavaUtil);
  EXPECT_EQ(A.AppPolyVCalls, B.AppPolyVCalls);
  EXPECT_EQ(A.AppMayFailCasts, B.AppMayFailCasts);
  EXPECT_EQ(A.EntryPointsExercised, B.EntryPointsExercised);
  EXPECT_EQ(A.BeansCreated, B.BeansCreated);
  EXPECT_EQ(A.InjectionsApplied, B.InjectionsApplied);
}

TEST(SnapshotStoreTest, RoundTripByteIdentity) {
  for (javalib::CollectionModel Model :
       {javalib::CollectionModel::OriginalJdk8,
        javalib::CollectionModel::OriginalNoTreeNodes,
        javalib::CollectionModel::SoundModulo}) {
    SCOPED_TRACE(snapshot::modelToken(Model));
    snapshot::BaseProgram B = snapshot::buildBase(Model);
    std::vector<uint8_t> Image = snapshot::serialize(B, Model);
    ASSERT_GT(Image.size(), snapshot::HeaderBytes);

    snapshot::LoadResult Loaded = snapshot::deserialize(Image, Model);
    ASSERT_TRUE(Loaded.ok()) << Loaded.Warning;
    EXPECT_EQ(Loaded.Bytes, Image.size());

    // Decode → re-encode must reproduce the image bit for bit: the format
    // has a single canonical encoding (fixed field order, no padding).
    std::vector<uint8_t> Image2 = snapshot::serialize(*Loaded.Data, Model);
    EXPECT_EQ(Image, Image2);
  }
}

TEST(SnapshotStoreTest, SaveAndLoadThroughDir) {
  TempDir Dir;
  snapshot::BaseProgram B =
      snapshot::buildBase(javalib::CollectionModel::SoundModulo);
  uint64_t Bytes = 0;
  ASSERT_EQ(snapshot::saveToDir(Dir.path(), B,
                                javalib::CollectionModel::SoundModulo,
                                &Bytes),
            "");
  const std::string Path =
      snapshot::snapshotPath(Dir.path(), javalib::CollectionModel::SoundModulo);
  EXPECT_EQ(std::filesystem::file_size(Path), Bytes);

  snapshot::LoadResult Loaded =
      snapshot::loadFromDir(Dir.path(), javalib::CollectionModel::SoundModulo);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Warning;
  EXPECT_EQ(Loaded.Bytes, Bytes);
  EXPECT_EQ(Loaded.Data->Symbols->size(), B.Symbols->size());
  EXPECT_EQ(Loaded.Data->Base->methodCount(), B.Base->methodCount());
  EXPECT_FALSE(Loaded.Data->Facts.empty());
}

TEST(SnapshotStoreTest, ModelMismatchRejected) {
  snapshot::BaseProgram B =
      snapshot::buildBase(javalib::CollectionModel::OriginalJdk8);
  std::vector<uint8_t> Image =
      snapshot::serialize(B, javalib::CollectionModel::OriginalJdk8);
  snapshot::LoadResult Loaded =
      snapshot::deserialize(Image, javalib::CollectionModel::SoundModulo);
  EXPECT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.Warning.find("collection model"), std::string::npos)
      << Loaded.Warning;
}

/// The first statement with opcode \p Op in \p P's base program.
ir::Statement &firstStatement(ir::Program &P, ir::Opcode Op) {
  for (uint32_t M = 0; M != P.methodCount(); ++M)
    for (ir::Statement &S : P.method(ir::MethodId(M)).Statements)
      if (S.Op == Op)
        return S;
  ADD_FAILURE() << "no statement with opcode " << static_cast<int>(Op);
  static ir::Statement None;
  return None;
}

/// The first method of \p P that has a body.
ir::Method &firstBody(ir::Program &P) {
  for (uint32_t M = 0; M != P.methodCount(); ++M)
    if (!P.method(ir::MethodId(M)).Statements.empty())
      return P.method(ir::MethodId(M));
  ADD_FAILURE() << "no method with a body";
  return P.method(ir::MethodId(0));
}

TEST(SnapshotStoreTest, RejectionPathsFallBackCleanly) {
  constexpr javalib::CollectionModel Model =
      javalib::CollectionModel::SoundModulo;
  TempDir Dir;
  snapshot::BaseProgram B = snapshot::buildBase(Model);
  ASSERT_EQ(snapshot::saveToDir(Dir.path(), B, Model), "");
  const std::string Path = snapshot::snapshotPath(Dir.path(), Model);
  const std::vector<uint8_t> Pristine = readFile(Path);
  ASSERT_GT(Pristine.size(), snapshot::HeaderBytes);

  // Reference result: builders only, no store anywhere.
  std::string BuilderDigest, BuilderExplain;
  {
    AnalysisSession Session{SessionOptions{}};
    CellResult Cell = Session.open(petstoreApp(), AnalysisKind::Mod2ObjH);
    ASSERT_TRUE(bool(Cell)) << Cell.error().Message;
    BuilderDigest = Cell->canonicalDigest();
    BuilderExplain = explainAll(*Cell);
  }

  // A corruption either damages the image's bytes, or changes its base
  // program and re-encodes it with a valid digest. The program defects
  // leave every id in range, so only the per-opcode operand check, the
  // opcode and type-kind range checks, or the supertype-order and
  // array-element checks can reject them.
  using ir::Opcode;
  struct Corruption {
    const char *Name;
    void (*Bytes)(std::vector<uint8_t> &);
    void (*Program)(ir::Program &) = nullptr;
  };
  const Corruption Cases[] = {
      {"truncated", [](std::vector<uint8_t> &I) { I.resize(I.size() / 2); }},
      {"bad magic", [](std::vector<uint8_t> &I) { I[0] ^= 0xFF; }},
      {"stale version",
       [](std::vector<uint8_t> &I) {
         // Header bytes 8..11 hold the little-endian format version.
         I[8] = 0xFE;
         I[9] = I[10] = I[11] = 0;
       }},
      {"payload corrupted",
       [](std::vector<uint8_t> &I) { I.back() ^= 0x01; }},
      {"opcode past Throw", nullptr,
       [](ir::Program &P) {
         firstStatement(P, Opcode::Alloc).Op = static_cast<Opcode>(
             static_cast<uint8_t>(Opcode::Throw) + 1);
       }},
      {"alloc without site", nullptr,
       [](ir::Program &P) {
         firstStatement(P, Opcode::Alloc).Site = ir::AllocSiteId::invalid();
       }},
      {"alloc without dst", nullptr,
       [](ir::Program &P) {
         firstStatement(P, Opcode::Alloc).Dst = ir::VarId::invalid();
       }},
      {"virtual call without invoke", nullptr,
       [](ir::Program &P) {
         firstStatement(P, Opcode::VirtualCall).Invoke =
             ir::InvokeId::invalid();
       }},
      {"virtual call without signature", nullptr,
       [](ir::Program &P) {
         firstStatement(P, Opcode::VirtualCall).CalleeSignature =
             Symbol::invalid();
       }},
      {"virtual call without base", nullptr,
       [](ir::Program &P) {
         firstStatement(P, Opcode::VirtualCall).Base = ir::VarId::invalid();
       }},
      {"special call without callee", nullptr,
       [](ir::Program &P) {
         firstStatement(P, Opcode::SpecialCall).DirectCallee =
             ir::MethodId::invalid();
       }},
      {"static call without callee", nullptr,
       [](ir::Program &P) {
         // The base library makes no static calls; append one.
         ir::Statement Call;
         Call.Op = Opcode::StaticCall;
         Call.Invoke = ir::InvokeId(0);
         firstBody(P).Statements.push_back(Call);
       }},
      {"load without field", nullptr,
       [](ir::Program &P) {
         firstStatement(P, Opcode::Load).FieldRef = ir::FieldId::invalid();
       }},
      {"store without base", nullptr,
       [](ir::Program &P) {
         firstStatement(P, Opcode::Store).Base = ir::VarId::invalid();
       }},
      {"catch clause without type", nullptr,
       [](ir::Program &P) {
         firstBody(P).Catches.push_back({ir::TypeId::invalid(), ir::VarId(0)});
       }},
      {"catch clause without variable", nullptr,
       [](ir::Program &P) {
         firstBody(P).Catches.push_back({ir::TypeId(0), ir::VarId::invalid()});
       }},
      {"superclass declared after its subtype", nullptr,
       [](ir::Program &P) {
         P.type(ir::TypeId(1)).Superclass = ir::TypeId(P.typeCount() - 1);
       }},
      {"interface declared after its subtype", nullptr,
       [](ir::Program &P) {
         P.type(ir::TypeId(0)).Interfaces.push_back(ir::TypeId(1));
       }},
      {"array type without element type", nullptr,
       [](ir::Program &P) {
         for (uint32_t T = 0; T != P.typeCount(); ++T)
           if (P.type(ir::TypeId(T)).Kind == ir::TypeKind::Array) {
             P.type(ir::TypeId(T)).ElementType = ir::TypeId::invalid();
             return;
           }
         ADD_FAILURE() << "no array type";
       }},
      {"type kind past Primitive", nullptr,
       [](ir::Program &P) {
         P.type(ir::TypeId(0)).Kind = static_cast<ir::TypeKind>(
             static_cast<uint8_t>(ir::TypeKind::Primitive) + 1);
       }},
  };
  for (const Corruption &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::vector<uint8_t> Bad = Pristine;
    if (C.Bytes) {
      C.Bytes(Bad);
    } else {
      snapshot::LoadResult Decoded = snapshot::deserialize(Bad, Model);
      ASSERT_TRUE(Decoded.ok()) << Decoded.Warning;
      C.Program(*Decoded.Data->Base);
      Bad = snapshot::serialize(*Decoded.Data, Model);
    }
    writeFile(Path, Bad);

    snapshot::LoadResult Loaded = snapshot::loadFromDir(Dir.path(), Model);
    EXPECT_FALSE(Loaded.ok());
    EXPECT_FALSE(Loaded.Warning.empty());
    if (C.Program) {
      EXPECT_NE(Loaded.Warning.find("program section"), std::string::npos)
          << Loaded.Warning;
    }

    // A session pointed at the broken store must warn, run the builders,
    // and produce the exact builder-path result.
    SessionOptions Options;
    Options.SnapshotDir = Dir.path();
    AnalysisSession Session(Options);
    testing::internal::CaptureStderr();
    CellResult Cell = Session.open(petstoreApp(), AnalysisKind::Mod2ObjH);
    std::string Stderr = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(bool(Cell)) << Cell.error().Message;
    EXPECT_NE(Stderr.find("falling back to builders"), std::string::npos)
        << Stderr;
    AnalysisSession::CacheStats CS = Session.cacheStats();
    EXPECT_EQ(CS.SnapshotLoads, 0u);
    EXPECT_EQ(CS.SnapshotBuilds, 1u);
    EXPECT_EQ(Cell->canonicalDigest(), BuilderDigest);
    EXPECT_EQ(explainAll(*Cell), BuilderExplain);
  }
}

TEST(SnapshotStoreTest, LoadVsBuildDigestEquality) {
  TempDir Dir;
  snapshot::BaseProgram B =
      snapshot::buildBase(javalib::CollectionModel::SoundModulo);
  ASSERT_EQ(snapshot::saveToDir(Dir.path(), B,
                                javalib::CollectionModel::SoundModulo),
            "");

  SessionOptions LoadOptions;
  LoadOptions.SnapshotDir = Dir.path();

  AnalysisSession Builder{SessionOptions{}};
  CellResult Built = Builder.open(petstoreApp(), AnalysisKind::Mod2ObjH);
  ASSERT_TRUE(bool(Built)) << Built.error().Message;

  AnalysisSession Mapped(LoadOptions);
  CellResult LoadedCell = Mapped.open(petstoreApp(), AnalysisKind::Mod2ObjH);
  ASSERT_TRUE(bool(LoadedCell)) << LoadedCell.error().Message;

  AnalysisSession::CacheStats CS = Mapped.cacheStats();
  EXPECT_EQ(CS.SnapshotLoads, 1u);
  EXPECT_EQ(CS.SnapshotBuilds, 0u);
  EXPECT_GT(CS.StoreBytes, 0u);

  EXPECT_EQ(Built->canonicalDigest(), LoadedCell->canonicalDigest());
  EXPECT_EQ(explainAll(*Built), explainAll(*LoadedCell));
  expectSameSemantics(Built->metrics(), LoadedCell->metrics());
}

TEST(SnapshotStoreTest, EnvVarResolvesStoreDir) {
  TempDir Dir;
  snapshot::BaseProgram B =
      snapshot::buildBase(javalib::CollectionModel::SoundModulo);
  ASSERT_EQ(snapshot::saveToDir(Dir.path(), B,
                                javalib::CollectionModel::SoundModulo),
            "");

  EnvGuard Env("JACKEE_SNAPSHOT_DIR", Dir.path());
  AnalysisSession Session{SessionOptions{}};
  CellResult Cell = Session.open(petstoreApp(), AnalysisKind::Mod2ObjH);
  ASSERT_TRUE(bool(Cell)) << Cell.error().Message;
  AnalysisSession::CacheStats CS = Session.cacheStats();
  EXPECT_EQ(CS.SnapshotLoads, 1u);
  EXPECT_EQ(CS.SnapshotBuilds, 0u);
}

TEST(SnapshotStoreTest, MixedSourceMatrixDeterminism) {
  // The store holds ONLY the sound-modulo model, so a matrix that also
  // needs original-jdk8 interleaves store-read and builder snapshots.
  TempDir Dir;
  snapshot::BaseProgram B =
      snapshot::buildBase(javalib::CollectionModel::SoundModulo);
  ASSERT_EQ(snapshot::saveToDir(Dir.path(), B,
                                javalib::CollectionModel::SoundModulo),
            "");

  const std::vector<Application> Apps = {petstoreApp(),
                                         applicationFor(BenchApp::Pybbs)};
  const std::vector<AnalysisKind> Kinds = {AnalysisKind::CI,
                                           AnalysisKind::Mod2ObjH};

  std::vector<AnalysisResult> Reference;
  {
    AnalysisSession Session{SessionOptions{}};
    Reference = Session.runMatrix(Apps, Kinds);
  }

  for (unsigned Jobs : {1u, 4u}) {
    SessionOptions Options;
    Options.Jobs = Jobs;
    Options.SnapshotDir = Dir.path();
    AnalysisSession Session(Options);
    std::vector<AnalysisResult> Results = Session.runMatrix(Apps, Kinds);

    AnalysisSession::CacheStats CS = Session.cacheStats();
    EXPECT_EQ(CS.SnapshotLoads, 1u) << "jobs=" << Jobs;  // sound-modulo
    EXPECT_EQ(CS.SnapshotBuilds, 1u) << "jobs=" << Jobs; // original-jdk8

    ASSERT_EQ(Results.size(), Reference.size());
    for (size_t I = 0; I != Results.size(); ++I) {
      ASSERT_TRUE(bool(Results[I])) << Results[I].error().Message;
      ASSERT_TRUE(bool(Reference[I])) << Reference[I].error().Message;
      expectSameSemantics(*Results[I], *Reference[I]);
    }
  }
}

} // namespace
