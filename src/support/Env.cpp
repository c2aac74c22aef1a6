//===- Env.cpp ------------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"

#include <cstdlib>
#include <cstring>
#include <thread>

using namespace jackee;

const char *jackee::env::rawVar(const char *Name) {
  const char *Value = std::getenv(Name);
  return (Value && *Value) ? Value : nullptr;
}

std::optional<long> jackee::env::countVar(const char *Name, long Min,
                                          long Max) {
  const char *Value = rawVar(Name);
  if (!Value)
    return std::nullopt;
  char *End = nullptr;
  long N = std::strtol(Value, &End, 10);
  if (End == Value || *End != '\0' || N < Min || N > Max)
    return std::nullopt;
  return N;
}

env::Switch jackee::env::switchVar(const char *Name) {
  Switch S;
  const char *Value = rawVar(Name);
  if (!Value || std::strcmp(Value, "0") == 0 ||
      std::strcmp(Value, "false") == 0)
    return S;
  S.On = true;
  if (std::strcmp(Value, "1") != 0 && std::strcmp(Value, "true") != 0)
    S.Path = Value;
  return S;
}

bool jackee::env::flagVar(const char *Name) {
  Switch S = switchVar(Name);
  return S.On && S.Path.empty();
}

unsigned jackee::env::resolveWorkerCount(unsigned Explicit,
                                         const char *Name) {
  if (Explicit > 0)
    return Explicit > 256 ? 256u : Explicit;
  if (std::optional<long> N = countVar(Name))
    return static_cast<unsigned>(*N);
  unsigned HW = std::thread::hardware_concurrency();
  if (HW == 0)
    return 1;
  return HW > 256 ? 256u : HW;
}
