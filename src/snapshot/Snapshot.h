//===- Snapshot.h - AOT base-program store ----------------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two-phase AOT snapshots of base programs (DESIGN.md §13). The paper's
/// "elephant" is the Java standard library: every process start re-runs the
/// javalib/framework builders plus base-fact extraction before a single
/// application class is analyzed. This subsystem serializes that work once
/// per collection model:
///
///  - **Phase 1** (`benchmark_cli --snapshot-save=DIR`): `buildBase` runs
///    the builders, extracts the base relation facts, and `saveToDir`
///    writes one versioned binary image per collection model.
///  - **Phase 2** (`EngineOptions::SnapshotDir` / `JACKEE_SNAPSHOT_DIR`):
///    `core::AnalysisSession` reads the store file once, validates it, and
///    keeps the image instead of running builders, so a cold CLI run or a
///    service replica boots in the time it takes to read and decode a few
///    hundred kilobytes.
///
/// The image is also the session's in-process cache format: without a
/// store, a session serializes `buildBase` output once per model, and every
/// analysis cell gets its base program by calling `deserialize` on its
/// model's image. There is no other way for a cell to get one.
///
/// Format: a 40-byte header (magic, format version, collection model,
/// payload size, FNV-1a-64 content digest) followed by a little-endian
/// fixed-width payload. Every cross-entity reference is a dense index
/// (symbol/type/method id raw value), never a pointer, so images are
/// position-independent and byte-identical across hosts. Validation is
/// strict: truncation, bad magic, stale version, wrong model or digest
/// mismatch makes the loader return a warning instead of a `BaseProgram`,
/// and the session falls back to the builder path — never a crash, never a
/// silently divergent result.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_SNAPSHOT_SNAPSHOT_H
#define JACKEE_SNAPSHOT_SNAPSHOT_H

#include "facts/BaseFacts.h"
#include "frameworks/FrameworkLibrary.h"
#include "ir/Program.h"
#include "javalib/JavaLibrary.h"
#include "support/SymbolTable.h"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace jackee {
namespace snapshot {

/// First 8 bytes of every snapshot image.
inline constexpr char Magic[8] = {'J', 'K', 'E', 'E', 'S', 'N', 'A', 'P'};

/// Bumped on any payload layout change; readers reject other versions.
inline constexpr uint32_t FormatVersion = 1;

/// magic(8) + version(4) + model(4) + payload-size(8) + digest(8) +
/// reserved(8).
inline constexpr size_t HeaderBytes = 40;

/// One collection model's complete application-independent state: the
/// interned symbols, the (unfinalized) base IR, the well-known library
/// entity ids, and the extracted base relation facts with their entity
/// watermark. This is exactly what each `core::AnalysisSession` cell
/// decodes from its model's image.
struct BaseProgram {
  std::unique_ptr<SymbolTable> Symbols;
  /// Unfinalized: cells finalize after populating application code, and
  /// `finalize()` state is derived, so it never hits the wire.
  std::unique_ptr<ir::Program> Base;
  javalib::JavaLib Lib;
  frameworks::FrameworkLib Frameworks;
  facts::BaseFactSet Facts;
};

/// Builds one model's base program the canonical way: library + framework
/// builders, then a throwaway finalize/extract cycle that captures the
/// base facts (interning the fact-entity symbols) and clears the derived
/// state again. This is THE single builder behind both the session's
/// cache-miss path and `--snapshot-save`, which is what makes a saved
/// store byte-equivalent to what the builder path produces in memory.
BaseProgram buildBase(javalib::CollectionModel Model);

/// Serializes \p B into a complete image (header + payload).
std::vector<uint8_t> serialize(const BaseProgram &B,
                               javalib::CollectionModel Model);

/// Outcome of `deserialize`/`loadFromDir`.
struct LoadResult {
  std::unique_ptr<BaseProgram> Data; ///< null on any validation failure
  uint64_t Bytes = 0;                ///< image size observed (0 if unread)
  std::string Warning;               ///< why `Data` is null

  bool ok() const { return Data != nullptr; }
};

/// Validates and decodes one image. All strings and tuples are copied out
/// of \p Image into owned storage (cells mutate what they decode), so the
/// image buffer may be freed or reused as soon as this returns.
LoadResult deserialize(std::span<const uint8_t> Image,
                       javalib::CollectionModel Expected);

/// Stable file-name token for \p Model ("original-jdk8", ...).
const char *modelToken(javalib::CollectionModel Model);

/// The store file for \p Model inside \p Dir: `DIR/base-<token>.jks`.
std::string snapshotPath(const std::string &Dir,
                         javalib::CollectionModel Model);

/// Phase 1: serializes \p B and writes it to `snapshotPath(Dir, Model)`
/// atomically (temp file + rename), creating \p Dir if needed.
/// \returns an empty string on success, else a diagnostic; \p OutBytes
/// (optional) receives the image size.
std::string saveToDir(const std::string &Dir, const BaseProgram &B,
                      javalib::CollectionModel Model,
                      uint64_t *OutBytes = nullptr);

/// Phase 2: reads the store file for \p Model into memory once and
/// deserializes it. When the image validates and \p Image is non-null,
/// the read bytes are moved into \p Image — what the session keeps and
/// decodes per cell.
LoadResult loadFromDir(const std::string &Dir, javalib::CollectionModel Model,
                       std::vector<uint8_t> *Image = nullptr);

} // namespace snapshot
} // namespace jackee

#endif // JACKEE_SNAPSHOT_SNAPSHOT_H
