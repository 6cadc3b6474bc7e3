// Fixture: every lenient number parser the `loose-parse` rule names must
// be flagged in bench/ and examples/.  Mentions in comments and strings
// (atoi, "strtoull(") are not calls and stay silent.
#include <cstdlib>
#include <string>

namespace dht::fixture {

int loose_int(const char* text) {
  return std::atoi(text);  // expect: loose-parse
}

double loose_real(const char* text) {
  return atof(text);  // expect: loose-parse
}

unsigned long long loose_u64(const char* text) {
  return std::strtoull(text, nullptr, 10);  // expect: loose-parse
}

int loose_string(const std::string& text) {
  return std::stoi(text);  // expect: loose-parse
}

const char* named_in_a_string() { return "strtoull("; }

}  // namespace dht::fixture
