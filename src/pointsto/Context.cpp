//===- Context.cpp --------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "pointsto/Context.h"

#include <algorithm>

using namespace jackee;
using namespace jackee::pointsto;

CtxId ContextTable::intern(std::span<const ir::AllocSiteId> Sites) {
  Scratch.assign(Sites.begin(), Sites.end());
  return internScratch();
}

CtxId ContextTable::internScratch() {
  auto It = Lookup.find(Scratch);
  if (It != Lookup.end())
    return CtxId(It->second);
  uint32_t Index = static_cast<uint32_t>(Contexts.size());
  Contexts.push_back(Scratch);
  Lookup.emplace(Scratch, Index);
  return CtxId(Index);
}

CtxId ContextTable::appendAndTruncate(CtxId Base, ir::AllocSiteId Extra,
                                      uint32_t Limit) {
  if (Limit == 0)
    return empty();
  // The last Limit - 1 sites of Base, then Extra.
  const std::vector<ir::AllocSiteId> &BaseSeq = elements(Base);
  size_t Keep = std::min<size_t>(BaseSeq.size(), Limit - 1);
  Scratch.assign(BaseSeq.end() - Keep, BaseSeq.end());
  Scratch.push_back(Extra);
  return internScratch();
}

CtxId ContextTable::truncate(CtxId Base, uint32_t Limit) {
  const std::vector<ir::AllocSiteId> &BaseSeq = elements(Base);
  if (BaseSeq.size() <= Limit)
    return Base;
  if (Limit == 0)
    return empty();
  Scratch.assign(BaseSeq.end() - Limit, BaseSeq.end());
  return internScratch();
}
