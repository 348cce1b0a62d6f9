// Seeded-violation fixture for the number-parse analyzer (vrc_lint.py
// --self-test). Every line tagged `// SEED: <rule>` must be flagged with
// exactly that rule; no other line may be flagged. Never compiled.
#include <cstdio>
#include <cstdlib>
#include <string>

namespace fixture {

int c_conversions(const char* text, char** end) {
  long a = std::strtol(text, end, 10);             // SEED: number-parse
  unsigned long long b = strtoull(text, end, 10);  // SEED: number-parse
  double c = std::strtod(text, end);               // SEED: number-parse
  int d = atoi(text);                              // SEED: number-parse
  double e = std::atof(text);                      // SEED: number-parse
  int f = 0;
  std::sscanf(text, "%d", &f);                     // SEED: number-parse
  return static_cast<int>(a + static_cast<long>(b) + static_cast<long>(c + e)) + d + f;
}

double std_conversions(const std::string& text) {
  int a = std::stoi(text);           // SEED: number-parse
  long long b = std::stoll(text);    // SEED: number-parse
  unsigned long c = std::stoul(text);  // SEED: number-parse
  double d = std::stod(text);        // SEED: number-parse
  float e = stof(text);              // SEED: number-parse
  return a + static_cast<double>(b + static_cast<long long>(c)) + d + e;
}

long reasonless(const char* text) {
  return std::strtol(text, nullptr, 10);  // NOLINT-number-parse() SEED: empty-nolint
}

}  // namespace fixture
