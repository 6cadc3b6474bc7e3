// Fixture: the strict flag parsers in src/common/ are built on strtol /
// strtoull / strtod -- `loose-parse` covers only bench/ and examples/, so
// nothing here may be flagged.
#pragma once

#include <cstdlib>

namespace dht::fixture {

inline bool whole_u64(const char* text, unsigned long long& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace dht::fixture
