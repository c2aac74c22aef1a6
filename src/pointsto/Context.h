//===- Context.h - Object-sensitive context interning -----------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contexts for object-sensitive analysis (Milanova et al.; Smaragdakis et
/// al. "Pick Your Contexts Well"). A context is a bounded sequence of
/// allocation sites: the method context of a virtually dispatched call is
/// `suffix(heapCtx(recv) ++ [site(recv)], K)` and the heap context of a new
/// allocation is `suffix(methodCtx, H)`. `ContextTable` interns these
/// sequences into dense ids; the same table serves method and heap contexts.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_POINTSTO_CONTEXT_H
#define JACKEE_POINTSTO_CONTEXT_H

#include "ir/Program.h"
#include "support/Hashing.h"

#include <span>
#include <unordered_map>
#include <vector>

namespace jackee {
namespace pointsto {

/// An interned context (sequence of allocation sites, possibly empty).
using CtxId = Id<struct CtxTag>;

/// Interns allocation-site sequences. Id 0 is always the empty context.
class ContextTable {
public:
  ContextTable() {
    // Intern the empty context as id 0.
    (void)intern({});
  }

  /// The empty (context-insensitive) context.
  CtxId empty() const { return CtxId(0); }

  /// Interns \p Sites verbatim.
  CtxId intern(std::span<const ir::AllocSiteId> Sites);

  /// Interns `suffix(Sites ++ [Extra], Limit)` — the "merge" operation of
  /// object sensitivity. \p Limit == 0 yields the empty context.
  CtxId appendAndTruncate(CtxId Base, ir::AllocSiteId Extra, uint32_t Limit);

  /// Interns `suffix(Base, Limit)` — heap-context truncation.
  CtxId truncate(CtxId Base, uint32_t Limit);

  const std::vector<ir::AllocSiteId> &elements(CtxId Ctx) const {
    return Contexts[Ctx.index()];
  }

  size_t size() const { return Contexts.size(); }

private:
  struct SeqHash {
    size_t operator()(const std::vector<ir::AllocSiteId> &Seq) const {
      size_t Seed = 0x5151u;
      for (ir::AllocSiteId Site : Seq)
        Seed = hashCombine(Seed, Site.rawValue());
      return Seed;
    }
  };

  /// Interns the contents of `Scratch`, copying them only when they are
  /// new.
  CtxId internScratch();

  std::vector<std::vector<ir::AllocSiteId>> Contexts;
  std::unordered_map<std::vector<ir::AllocSiteId>, uint32_t, SeqHash> Lookup;
  /// The candidate context of the lookup under way; reused, so a lookup
  /// that finds its context allocates nothing.
  std::vector<ir::AllocSiteId> Scratch;
};

} // namespace pointsto
} // namespace jackee

#endif // JACKEE_POINTSTO_CONTEXT_H
