// Clean fixture for the number-parse analyzer: zero findings expected.
// Exercises the false-positive guards — banned names in comments and string
// literals, lookalike identifiers and members, and the NOLINT-number-parse
// escape hatch on the same line and the line above.
#include <atomic>
#include <cstdlib>
#include <string>

namespace fixture {

// Prose mentioning std::strtol(text) or atoi(s) is not a call.
const char* kHelp = "values are parsed by parse_int, never by std::stoi(text)";

struct Store {
  int stop(int x) { return x; }
  // NOLINT-number-parse(a member definition named like the free function)
  double stod(double x) { return x; }
};

int lookalikes(Store& store, Store* pointer) {
  std::atomic<int> atomic_count{0};  // "ato" prefix of another identifier
  int stored = store.stop(1);
  double via_member = store.stod(2.0) + pointer->stod(3.0);
  int restore(int);  // declaration containing "sto"
  return stored + atomic_count.load() + static_cast<int>(via_member);
}

long escaped(const char* text) {
  return std::strtol(text, nullptr, 16);  // NOLINT-number-parse(hex register dump, not user input)
}

// NOLINT-number-parse(fixed-format header written by this program)
double escaped_above(const char* text) { return std::strtod(text, nullptr); }

}  // namespace fixture
