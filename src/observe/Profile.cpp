//===- Profile.cpp - Per-rule/relation cost attribution --------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "observe/Profile.h"

#include "observe/Json.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>

namespace jackee {
namespace observe {

namespace {

std::string fmtU64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, V);
  return Buf;
}

std::string fmtF(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

/// Right-aligns numeric columns to their widest row; the last column is
/// free-form text.
class Table {
public:
  explicit Table(std::vector<std::string> Header) : Rows{std::move(Header)} {}

  void row(std::vector<std::string> Cells) {
    assert(Cells.size() == Rows.front().size());
    Rows.push_back(std::move(Cells));
  }

  void render(std::string &Out, std::string_view Indent) const {
    size_t Cols = Rows.front().size();
    std::vector<size_t> Width(Cols, 0);
    for (const auto &R : Rows)
      for (size_t C = 0; C + 1 < Cols; ++C)
        Width[C] = std::max(Width[C], R[C].size());
    for (const auto &R : Rows) {
      Out += Indent;
      for (size_t C = 0; C < Cols; ++C) {
        if (C + 1 < Cols) {
          Out.append(Width[C] - R[C].size(), ' ');
          Out += R[C];
          Out += "  ";
        } else {
          Out += R[C];
        }
      }
      Out += '\n';
    }
  }

private:
  std::vector<std::vector<std::string>> Rows;
};

/// Label for census histogram bucket \p I: `1`, `2`, `3..4`, `5..8`, ...
std::string bucketLabel(size_t I) {
  if (I == 0)
    return "1";
  uint64_t Lo = (uint64_t(1) << (I - 1)) + 1;
  uint64_t Hi = uint64_t(1) << I;
  if (Lo == Hi)
    return fmtU64(Hi);
  return fmtU64(Lo) + ".." + fmtU64(Hi);
}

} // namespace

std::string renderProfileText(const Profile &P, size_t TopK) {
  std::string Out;
  Out += "== profile: " + P.Label + " ==\n";

  // Hot rules by fresh derivations. Ties break on matches, then passes,
  // then name/origin — all deterministic, so the ordering is too.
  std::vector<const ProfileRule *> Rules;
  Rules.reserve(P.Rules.size());
  for (const ProfileRule &R : P.Rules)
    Rules.push_back(&R);
  std::sort(Rules.begin(), Rules.end(),
            [](const ProfileRule *A, const ProfileRule *B) {
              if (A->Derivations != B->Derivations)
                return A->Derivations > B->Derivations;
              if (A->Matches != B->Matches)
                return A->Matches > B->Matches;
              if (A->Passes != B->Passes)
                return A->Passes > B->Passes;
              if (A->Name != B->Name)
                return A->Name < B->Name;
              return A->Origin < B->Origin;
            });
  size_t RuleK = std::min(TopK, Rules.size());
  Out += "-- hot rules (top " + fmtU64(RuleK) + " of " +
         fmtU64(Rules.size()) + ", by fresh derivations) --\n";
  {
    Table T({"derivations", "matches", "passes", "rounds", "rule"});
    for (size_t I = 0; I < RuleK; ++I) {
      const ProfileRule &R = *Rules[I];
      T.row({fmtU64(R.Derivations), fmtU64(R.Matches), fmtU64(R.Passes),
             fmtU64(R.RoundsFired), R.Name + "  @ " + R.Origin});
    }
    T.render(Out, "  ");
  }

  // Hot relations by exact payload bytes (size * arity * sizeof(Symbol));
  // capacity- and index-derived bytes are volatile and live in the JSON
  // only.
  std::vector<const ProfileRelationRow *> Rels;
  Rels.reserve(P.Relations.size());
  for (const ProfileRelationRow &R : P.Relations)
    if (R.Tuples != 0)
      Rels.push_back(&R);
  std::sort(Rels.begin(), Rels.end(),
            [](const ProfileRelationRow *A, const ProfileRelationRow *B) {
              if (A->DataBytes != B->DataBytes)
                return A->DataBytes > B->DataBytes;
              if (A->Live != B->Live)
                return A->Live > B->Live;
              return A->Name < B->Name;
            });
  size_t RelK = std::min(TopK, Rels.size());
  Out += "-- hot relations (top " + fmtU64(RelK) + " of " +
         fmtU64(Rels.size()) + " non-empty, by payload bytes) --\n";
  {
    Table T({"bytes", "tuples", "live", "dead", "arity", "relation"});
    for (size_t I = 0; I < RelK; ++I) {
      const ProfileRelationRow &R = *Rels[I];
      T.row({fmtU64(R.DataBytes), fmtU64(R.Tuples), fmtU64(R.Live),
             fmtU64(R.Dead), fmtU64(R.Arity), R.Name});
    }
    T.render(Out, "  ");
  }

  // Census.
  const ProfileCensus &C = P.Census;
  Out += "-- points-to census --\n";
  Out += "  var nodes:          " + fmtU64(C.VarNodes) + "\n";
  Out += "  non-empty sets:     " + fmtU64(C.NonEmptySets) + "\n";
  char Ratio[32];
  std::snprintf(Ratio, sizeof(Ratio), "%.2f", C.sharingRatio());
  Out += "  distinct sets:      " + fmtU64(C.DistinctSets) +
         "  (sharing " + Ratio + "x)\n";
  Out += "  set entries:        " + fmtU64(C.TotalEntries) + " total, " +
         fmtU64(C.DistinctEntries) + " distinct\n";
  Out += "  set bytes:          " + fmtU64(C.SetBytes) + "\n";
  Out += "  reclaimable bytes:  " + fmtU64(C.ReclaimableBytes) +
         "  (hash-consing upper bound)\n";
  Out += "  max set size:       " + fmtU64(C.MaxSetSize) + "\n";
  if (!C.Histogram.empty()) {
    Out += "  set-size histogram:\n";
    Table T({"size", "sets"});
    for (size_t I = 0; I < C.Histogram.size(); ++I)
      if (C.Histogram[I] != 0)
        T.row({bucketLabel(I), fmtU64(C.Histogram[I])});
    T.render(Out, "    ");
  }
  if (!C.Packages.empty()) {
    Out += "  package shares (VarPointsTo tuples by declaring class):\n";
    Table T({"tuples", "package"});
    for (const auto &S : C.Packages)
      T.row({fmtU64(S.Tuples), S.Prefix});
    T.render(Out, "    ");
  }
  Out += "== end profile: " + P.Label + " ==\n";
  return Out;
}

std::string profileToJson(const Profile &P, unsigned BaseIndent) {
  std::string Pad(BaseIndent, ' ');
  std::string Out;
  auto Line = [&](unsigned Level, std::string Text) {
    Out += Pad;
    Out.append(Level * 2, ' ');
    Out += Text;
    Out += '\n';
  };

  Line(0, "{");
  Line(1, "\"schema\": 1,");
  Line(1, "\"label\": " + jsonQuote(P.Label) + ",");

  Line(1, "\"rules\": [");
  for (size_t I = 0; I < P.Rules.size(); ++I) {
    const ProfileRule &R = P.Rules[I];
    Line(2, std::string("{\"name\": ") + jsonQuote(R.Name) +
                ", \"origin\": " + jsonQuote(R.Origin) +
                ", \"passes\": " + fmtU64(R.Passes) +
                ", \"rounds_fired\": " + fmtU64(R.RoundsFired) +
                ", \"derivations\": " + fmtU64(R.Derivations) +
                ", \"matches\": " + fmtU64(R.Matches) +
                ", \"tuples_considered\": " + fmtU64(R.TuplesConsidered) +
                ", \"estimated_fanout\": " + fmtF(R.EstimatedFanout) +
                ", \"wall_seconds\": " + fmtF(R.WallSeconds) + "}" +
                (I + 1 < P.Rules.size() ? "," : ""));
  }
  Line(1, "],");

  Line(1, "\"relations\": [");
  for (size_t I = 0; I < P.Relations.size(); ++I) {
    const ProfileRelationRow &R = P.Relations[I];
    Line(2, std::string("{\"name\": ") + jsonQuote(R.Name) +
                ", \"arity\": " + fmtU64(R.Arity) +
                ", \"tuples\": " + fmtU64(R.Tuples) +
                ", \"live\": " + fmtU64(R.Live) +
                ", \"dead\": " + fmtU64(R.Dead) +
                ", \"data_bytes\": " + fmtU64(R.DataBytes) +
                ", \"store_bytes_approx\": " + fmtU64(R.StoreBytesApprox) +
                ", \"index_bytes_approx\": " + fmtU64(R.IndexBytesApprox) +
                ", \"indexes_approx\": " + fmtU64(R.IndexesApprox) + "}" +
                (I + 1 < P.Relations.size() ? "," : ""));
  }
  Line(1, "],");

  const ProfileCensus &C = P.Census;
  Line(1, "\"census\": {");
  Line(2, "\"var_nodes\": " + fmtU64(C.VarNodes) + ",");
  Line(2, "\"nonempty_sets\": " + fmtU64(C.NonEmptySets) + ",");
  Line(2, "\"distinct_sets\": " + fmtU64(C.DistinctSets) + ",");
  Line(2, "\"total_entries\": " + fmtU64(C.TotalEntries) + ",");
  Line(2, "\"distinct_entries\": " + fmtU64(C.DistinctEntries) + ",");
  Line(2, "\"set_bytes\": " + fmtU64(C.SetBytes) + ",");
  Line(2, "\"reclaimable_bytes\": " + fmtU64(C.ReclaimableBytes) + ",");
  Line(2, "\"max_set_size\": " + fmtU64(C.MaxSetSize) + ",");
  {
    std::string H = "\"histogram\": [";
    for (size_t I = 0; I < C.Histogram.size(); ++I) {
      if (I)
        H += ", ";
      H += fmtU64(C.Histogram[I]);
    }
    H += "],";
    Line(2, std::move(H));
  }
  Line(2, "\"packages\": [");
  for (size_t I = 0; I < C.Packages.size(); ++I)
    Line(3, std::string("{\"prefix\": ") + jsonQuote(C.Packages[I].Prefix) +
                ", \"tuples\": " + fmtU64(C.Packages[I].Tuples) + "}" +
                (I + 1 < C.Packages.size() ? "," : ""));
  Line(2, "]");
  Line(1, "},");

  Line(1, "\"phases\": [");
  for (size_t I = 0; I < P.Phases.size(); ++I) {
    const ProfilePhase &Ph = P.Phases[I];
    Line(2, std::string("{\"name\": ") + jsonQuote(Ph.Name) +
                ", \"phase_seconds\": " + fmtF(Ph.Seconds) +
                ", \"peak_rss_bytes\": " + fmtU64(Ph.PeakRssBytes) + "}" +
                (I + 1 < P.Phases.size() ? "," : ""));
  }
  Line(1, "]");
  Line(0, "}");
  return Out;
}

//===----------------------------------------------------------------------===//
// EventSink
//===----------------------------------------------------------------------===//

EventSink::~EventSink() {
  if (Out)
    std::fclose(Out);
}

EventSink::Event::Event(EventSink *Sink, std::string_view Kind) : Sink(Sink) {
  Line = "{\"event\": " + jsonQuote(Kind);
}

EventSink::Event::~Event() {
  if (Sink)
    Sink->commit(Line);
}

EventSink::Event &EventSink::Event::str(std::string_view Key,
                                        std::string_view Value) {
  Line += ", " + jsonQuote(Key) + ": " + jsonQuote(Value);
  return *this;
}

EventSink::Event &EventSink::Event::num(std::string_view Key, double Value) {
  Line += ", " + jsonQuote(Key) + ": " + fmtF(Value);
  return *this;
}

EventSink::Event &EventSink::Event::num(std::string_view Key, uint64_t Value) {
  Line += ", " + jsonQuote(Key) + ": " + fmtU64(Value);
  return *this;
}

void EventSink::commit(std::string &Line) {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Sequence numbers are assigned at commit time, under the same lock that
  // orders the writes, so "seq" always matches line order in the log.
  std::string Full = "{\"seq\": " + fmtU64(Seq++) + ", " +
                     Line.substr(1) + "}\n";
  Bytes += Full.size();
  if (Out) {
    std::fwrite(Full.data(), 1, Full.size(), Out);
    std::fflush(Out); // heartbeats must be visible to `tail -f` immediately
  } else {
    Buffer += Full;
  }
}

bool EventSink::openFile(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  if (Out)
    std::fclose(Out);
  Out = F;
  if (!Buffer.empty()) {
    std::fwrite(Buffer.data(), 1, Buffer.size(), Out);
    std::fflush(Out);
    Buffer.clear();
  }
  return true;
}

uint64_t EventSink::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Seq;
}

uint64_t EventSink::bytesWritten() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Bytes;
}

std::string EventSink::buffered() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Buffer;
}

} // namespace observe
} // namespace jackee
