#include "util/units.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace vrc {
namespace {

TEST(UnitsTest, MegabytesRoundTrip) {
  EXPECT_EQ(megabytes(1), kMiB);
  EXPECT_EQ(megabytes(384), 384 * kMiB);
  EXPECT_DOUBLE_EQ(to_megabytes(megabytes(128)), 128.0);
  EXPECT_DOUBLE_EQ(to_megabytes(megabytes(0.5)), 0.5);
}

TEST(UnitsTest, MillisecondsToSeconds) {
  EXPECT_DOUBLE_EQ(milliseconds(10), 0.01);
  EXPECT_DOUBLE_EQ(milliseconds(0.1), 0.0001);
}

TEST(UnitsTest, MbpsConversionMatchesPaperMigrationCost) {
  // 10 Mbps Ethernet moves 1.25e6 bytes/s; a 100 MB image takes ~83.9 s.
  const double bytes_per_sec = mbps_to_bytes_per_sec(10.0);
  EXPECT_DOUBLE_EQ(bytes_per_sec, 1.25e6);
  const double seconds = static_cast<double>(megabytes(100)) / bytes_per_sec;
  EXPECT_NEAR(seconds, 83.9, 0.1);
}

TEST(UnitsTest, ConstantsAreConsistent) {
  EXPECT_EQ(kMiB, 1024 * kKiB);
  EXPECT_EQ(kGiB, 1024 * kMiB);
}

TEST(ParseBytesTest, AcceptsSuffixesAndPlainBytes) {
  Bytes out = 0;
  EXPECT_TRUE(parse_bytes("384MB", &out));
  EXPECT_EQ(out, megabytes(384));
  EXPECT_TRUE(parse_bytes("128MiB", &out));
  EXPECT_EQ(out, megabytes(128));
  EXPECT_TRUE(parse_bytes("4KB", &out));
  EXPECT_EQ(out, 4 * kKiB);
  EXPECT_TRUE(parse_bytes("1.5GB", &out));
  EXPECT_EQ(out, kGiB + kGiB / 2);
  EXPECT_TRUE(parse_bytes("65536", &out));
  EXPECT_EQ(out, 65536);
  EXPECT_TRUE(parse_bytes("512B", &out));
  EXPECT_EQ(out, 512);
  EXPECT_TRUE(parse_bytes("16 MB", &out));  // space before the suffix is fine
  EXPECT_EQ(out, megabytes(16));
}

TEST(ParseBytesTest, RejectsGarbageUnknownSuffixAndNegative) {
  Bytes out = 0;
  EXPECT_FALSE(parse_bytes("", &out));
  EXPECT_FALSE(parse_bytes("lots", &out));
  EXPECT_FALSE(parse_bytes("128TB", &out));
  EXPECT_FALSE(parse_bytes("-4MB", &out));
  EXPECT_FALSE(parse_bytes("4MBx", &out));
}

TEST(ParseDurationTest, AcceptsSuffixesAndPlainSeconds) {
  SimTime out = 0.0;
  EXPECT_TRUE(parse_duration("10ms", &out));
  EXPECT_DOUBLE_EQ(out, 0.010);
  EXPECT_TRUE(parse_duration("0.5s", &out));
  EXPECT_DOUBLE_EQ(out, 0.5);
  EXPECT_TRUE(parse_duration("2min", &out));
  EXPECT_DOUBLE_EQ(out, 120.0);
  EXPECT_TRUE(parse_duration("15m", &out));
  EXPECT_DOUBLE_EQ(out, 900.0);
  EXPECT_TRUE(parse_duration("250us", &out));
  EXPECT_DOUBLE_EQ(out, 2.5e-4);
  EXPECT_TRUE(parse_duration("1h", &out));
  EXPECT_DOUBLE_EQ(out, 3600.0);
  EXPECT_TRUE(parse_duration("1800", &out));
  EXPECT_DOUBLE_EQ(out, 1800.0);
  EXPECT_TRUE(parse_duration("3sec", &out));
  EXPECT_DOUBLE_EQ(out, 3.0);
}

TEST(ParseDurationTest, RejectsGarbageUnknownSuffixAndNegative) {
  SimTime out = 0.0;
  EXPECT_FALSE(parse_duration("", &out));
  EXPECT_FALSE(parse_duration("soon", &out));
  EXPECT_FALSE(parse_duration("2 fortnights", &out));
  EXPECT_FALSE(parse_duration("-5s", &out));
  EXPECT_FALSE(parse_duration("10msx", &out));
}

TEST(ParseDurationTest, RejectsNonFiniteNumbers) {
  // strtod accepts these spellings; a duration or size never means them (an
  // infinite horizon would make the fault generator draw forever).
  SimTime seconds = 7.0;
  Bytes bytes = 7;
  for (const char* text : {"nan", "NaN", "-nan", "inf", "+inf", "INFINITY", "infs", "nanms",
                           "1e999", "1e999s"}) {
    EXPECT_FALSE(parse_duration(text, &seconds)) << text;
    EXPECT_FALSE(parse_bytes(text, &bytes)) << text;
  }
  EXPECT_FALSE(parse_bytes("infMB", &bytes));
  EXPECT_FALSE(parse_bytes("nanKB", &bytes));
  EXPECT_EQ(seconds, 7.0);
  EXPECT_EQ(bytes, 7);
}

// One row per input: what parse_int<T> / parse_real / parse_bool make of it.
// `accepted` false means the call returns false and leaves *out untouched.
struct ScalarCase {
  const char* type;  // "int", "uint32", "size", "int64", "uint64", "real", "bool"
  std::string text;
  bool accepted;
  long double expected = 0;  // the parsed value when accepted (bool: 0/1); exact in T
};

std::ostream& operator<<(std::ostream& os, const ScalarCase& c) {
  return os << c.type << " '" << c.text << "'";
}

template <typename T>
void check_parse(const ScalarCase& c, bool (*parse)(const std::string&, T*)) {
  const T sentinel = static_cast<T>(7);
  T out = sentinel;
  EXPECT_EQ(parse(c.text, &out), c.accepted) << c;
  if (c.accepted) {
    EXPECT_EQ(out, static_cast<T>(c.expected)) << c;
  } else {
    EXPECT_EQ(out, sentinel) << c;
  }
}

class ParseScalarTest : public ::testing::TestWithParam<ScalarCase> {};

TEST_P(ParseScalarTest, AcceptsOrRejects) {
  const ScalarCase& c = GetParam();
  const std::string type = c.type;
  if (type == "int") check_parse<int>(c, &parse_int<int>);
  if (type == "uint32") check_parse<std::uint32_t>(c, &parse_int<std::uint32_t>);
  if (type == "size") check_parse<std::size_t>(c, &parse_int<std::size_t>);
  if (type == "int64") check_parse<long long>(c, &parse_int<long long>);
  if (type == "uint64") check_parse<std::uint64_t>(c, &parse_int<std::uint64_t>);
  if (type == "real") check_parse<double>(c, &parse_real);
  if (type == "bool") {
    bool out = false;
    EXPECT_EQ(parse_bool(c.text, &out), c.accepted) << c;
    if (c.accepted) {
      EXPECT_EQ(out, c.expected != 0) << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Units, ParseScalarTest,
    ::testing::Values(
        // Accepted forms, one destination type at a time.
        ScalarCase{"int", "42", true, 42}, ScalarCase{"int", "-5", true, -5},
        ScalarCase{"int", "+3", true, 3}, ScalarCase{"int", " 8", true, 8},
        ScalarCase{"int", "2147483647", true, 2147483647.0L},
        ScalarCase{"int", "-2147483648", true, -2147483648.0L},
        ScalarCase{"uint32", "4294967295", true, 4294967295.0L},
        ScalarCase{"size", "0", true, 0},
        ScalarCase{"int64", "-9000000000", true, -9000000000.0L},
        ScalarCase{"uint64", "18446744073709551615", true, 18446744073709551615.0L},
        ScalarCase{"uint64", "+9", true, 9},
        ScalarCase{"real", "0.25", true, 0.25L}, ScalarCase{"real", "2", true, 2},
        ScalarCase{"real", "-1.5", true, -1.5L}, ScalarCase{"real", "125e-3", true, 0.125L},
        ScalarCase{"bool", "1", true, 1}, ScalarCase{"bool", "true", true, 1},
        ScalarCase{"bool", "on", true, 1}, ScalarCase{"bool", "yes", true, 1},
        ScalarCase{"bool", "0", true, 0}, ScalarCase{"bool", "false", true, 0},
        ScalarCase{"bool", "off", true, 0}, ScalarCase{"bool", "no", true, 0},
        // Out of the destination's range.
        ScalarCase{"int", "2147483648", false}, ScalarCase{"int", "-2147483649", false},
        ScalarCase{"uint32", "4294967296", false},
        ScalarCase{"int64", "9223372036854775808", false},
        ScalarCase{"uint64", "18446744073709551616", false},
        // Signed text for unsigned destinations (strtoull would wrap it).
        ScalarCase{"uint64", "-1", false}, ScalarCase{"uint64", " -1", false},
        ScalarCase{"uint32", "-0", false}, ScalarCase{"size", "-4", false},
        // Non-finite and out-of-range reals.
        ScalarCase{"real", "nan", false}, ScalarCase{"real", "-nan", false},
        ScalarCase{"real", "inf", false}, ScalarCase{"real", "-INFINITY", false},
        ScalarCase{"real", "1e400", false}, ScalarCase{"real", "-1e400", false},
        // Trailing junk, and numbers of the wrong kind.
        ScalarCase{"int", "12abc", false}, ScalarCase{"int", "5 ", false},
        ScalarCase{"int", "1.5", false}, ScalarCase{"int", "0x10", false},
        ScalarCase{"uint64", "9z", false}, ScalarCase{"real", "2.5x", false},
        ScalarCase{"real", "1,5", false}, ScalarCase{"bool", "maybe", false},
        ScalarCase{"bool", "TRUE", false}, ScalarCase{"bool", " 1", false},
        // Empty and blank text.
        ScalarCase{"int", "", false}, ScalarCase{"uint32", "", false},
        ScalarCase{"size", "", false}, ScalarCase{"int64", " ", false},
        ScalarCase{"uint64", "", false}, ScalarCase{"real", "", false},
        ScalarCase{"bool", "", false}));

TEST(ParseRealTest, KeepsStrtodBits) {
  // Every value the scenario goldens use must convert to exactly the double
  // std::strtod gives, so parse_real cannot move a fingerprint.
  for (const char* text : {"0.85", "0.9", "1.4", "0.03", "400", "233", "1e-3", "0.1", "2.5"}) {
    double parsed = 0.0;
    ASSERT_TRUE(parse_real(text, &parsed)) << text;
    const double reference = std::strtod(text, nullptr);
    EXPECT_EQ(std::memcmp(&parsed, &reference, sizeof parsed), 0) << text;
  }
}

TEST(SplitParamsTest, KeepsOrderDuplicatesAndEqualsInValues) {
  ParamPairs pairs;
  std::string bad;
  ASSERT_TRUE(split_params("b=2,a=1,b=3,expr=x=y,empty=", &pairs, &bad));
  EXPECT_EQ(pairs,
            (ParamPairs{{"b", "2"}, {"a", "1"}, {"b", "3"}, {"expr", "x=y"}, {"empty", ""}}));
}

TEST(SplitParamsTest, ReportsTheFirstMalformedItem) {
  for (const auto& [text, item] : std::vector<std::pair<std::string, std::string>>{
           {"a=1,flag,b=2", "flag"}, {"a=1,=2", "=2"}, {"a=1,,b=2", ""}, {"", ""}}) {
    ParamPairs pairs;
    std::string bad = "unset";
    EXPECT_FALSE(split_params(text, &pairs, &bad)) << text;
    EXPECT_EQ(bad, item) << text;
  }
}

TEST(ParseBytesTest, RejectsQuantitiesPastTheInt64Range) {
  Bytes out = 5;
  EXPECT_FALSE(parse_bytes("8589934592GB", &out));  // 2^63 bytes
  EXPECT_FALSE(parse_bytes("1e30", &out));
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(parse_bytes("8589934591GB", &out));
  EXPECT_EQ(out, 8589934591LL * kGiB);
}

}  // namespace
}  // namespace vrc
