//===- Explain.h - Derivation-tree queries ----------------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `explain()` queries over a `ProvenanceRecorder`: given a tuple, expand
/// its canonical derivation into a tree whose internal nodes are rule
/// applications and whose leaves are base facts (attributed to their
/// insertion epoch). Trees are depth- and node-capped so explaining a tuple
/// deep in a transitive closure stays cheap, and cycle-guarded — the
/// recorded graph is acyclic by construction (witness indexes always
/// predate the derived tuple), but the explainer defends against a corrupt
/// store rather than recursing forever.
///
/// Queries arrive either as (relation id, tuple) pairs or as text of the
/// form `Rel("a", b, _)` — quoted or bare constants, `_` matching any
/// value — the syntax `benchmark_cli --explain` accepts.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_PROVENANCE_EXPLAIN_H
#define JACKEE_PROVENANCE_EXPLAIN_H

#include "provenance/Provenance.h"

#include <string>
#include <vector>

namespace jackee {
namespace provenance {

/// Caps on derivation-tree materialization.
struct ExplainOptions {
  uint32_t MaxDepth = 8;   ///< children beyond this depth are truncated
  uint32_t MaxNodes = 256; ///< total node budget per tree
};

/// One node of a derivation tree.
struct DerivationNode {
  uint32_t Rel = 0;       ///< relation id
  uint32_t TupleIdx = 0;  ///< dense tuple index within the relation
  std::string Atom;       ///< rendered `Rel("a", "b")`
  bool IsBase = false;    ///< no derivation record: a base fact
  /// Rule origin (`file:line`) for derived nodes, epoch label for base
  /// facts — the satellite-1 plumbing of `Rule::Origin` surfaces here.
  std::string Source;
  uint32_t RuleIdx = ProvenanceRecorder::None; ///< deriving rule, if any
  bool Truncated = false; ///< depth/node cap cut this subtree short
  bool Cyclic = false;    ///< node repeats an ancestor (corrupt store)
  std::vector<DerivationNode> Children; ///< witness subtrees, body order
};

/// Materializes derivation trees from a recorder's store.
class Explainer {
public:
  /// All three references must outlive the explainer. \p Rules must be the
  /// rule set the recorded evaluator ran (record rule indexes point into
  /// it).
  Explainer(const datalog::Database &DB, const datalog::RuleSet &Rules,
            const ProvenanceRecorder &Recorder,
            ExplainOptions Options = ExplainOptions())
      : DB(DB), Rules(Rules), Recorder(Recorder), Options(Options) {}

  /// Explains tuple \p TupleIdx of relation \p Rel.
  DerivationNode explain(datalog::RelationId Rel, uint32_t TupleIdx) const;

  /// Parses \p Query (`Rel("a", b, _)` or bare `Rel`) and explains every
  /// matching tuple. On a parse/lookup error returns an empty vector and
  /// sets \p Error; an empty result with an empty \p Error means the query
  /// was well-formed but matched nothing.
  std::vector<DerivationNode> explainQuery(std::string_view Query,
                                           std::string &Error) const;

  /// The relation name \p Query starts with; empty when it starts with
  /// none.
  static std::string_view queryRelation(std::string_view Query);

  /// Renders \p Node as an indented text tree, one atom per line, with
  /// `[rule: ...]` / `[base fact: epoch ...]` source annotations.
  static std::string renderText(const DerivationNode &Node);

  /// Renders \p Node as a JSON object (children nested under "children").
  static std::string renderJson(const DerivationNode &Node);

private:
  DerivationNode explainImpl(uint32_t Rel, uint32_t TupleIdx, uint32_t Depth,
                             uint32_t &Budget,
                             std::vector<uint64_t> &Path) const;
  std::string renderAtom(uint32_t Rel, uint32_t TupleIdx) const;

  const datalog::Database &DB;
  const datalog::RuleSet &Rules;
  const ProvenanceRecorder &Recorder;
  ExplainOptions Options;
};

} // namespace provenance
} // namespace jackee

#endif // JACKEE_PROVENANCE_EXPLAIN_H
