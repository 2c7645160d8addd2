#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "convert/numeric.h"
#include "convert/temporal.h"

namespace parparaw {
namespace {

TEST(ParseInt64Test, BasicValues) {
  int64_t v;
  EXPECT_TRUE(ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64("1941", &v));
  EXPECT_EQ(v, 1941);
  EXPECT_TRUE(ParseInt64("-17", &v));
  EXPECT_EQ(v, -17);
  EXPECT_TRUE(ParseInt64("+5", &v));
  EXPECT_EQ(v, 5);
  EXPECT_TRUE(ParseInt64("  42  ", &v));
  EXPECT_EQ(v, 42);
}

TEST(ParseInt64Test, Extremes) {
  int64_t v;
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &v));
  EXPECT_EQ(v, std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(ParseInt64("9223372036854775808", &v));
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999", &v));
}

TEST(ParseInt64Test, Malformed) {
  int64_t v;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("  ", &v));
  EXPECT_FALSE(ParseInt64("-", &v));
  EXPECT_FALSE(ParseInt64("12a", &v));
  EXPECT_FALSE(ParseInt64("1 2", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
  EXPECT_FALSE(ParseInt64("0x10", &v));
}

TEST(ParseInt32Test, RangeChecked) {
  int32_t v;
  EXPECT_TRUE(ParseInt32("2147483647", &v));
  EXPECT_EQ(v, std::numeric_limits<int32_t>::max());
  EXPECT_TRUE(ParseInt32("-2147483648", &v));
  EXPECT_FALSE(ParseInt32("2147483648", &v));
  EXPECT_FALSE(ParseInt32("-2147483649", &v));
}

TEST(ParseFloat64Test, BasicValues) {
  double v;
  EXPECT_TRUE(ParseFloat64("199.99", &v));
  EXPECT_DOUBLE_EQ(v, 199.99);
  EXPECT_TRUE(ParseFloat64("-0.5", &v));
  EXPECT_DOUBLE_EQ(v, -0.5);
  EXPECT_TRUE(ParseFloat64("42", &v));
  EXPECT_DOUBLE_EQ(v, 42.0);
  EXPECT_TRUE(ParseFloat64(".25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(ParseFloat64("3.", &v));
  EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(ParseFloat64Test, Exponents) {
  double v;
  EXPECT_TRUE(ParseFloat64("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_TRUE(ParseFloat64("2.5E-2", &v));
  EXPECT_DOUBLE_EQ(v, 0.025);
  EXPECT_TRUE(ParseFloat64("1e+10", &v));
  EXPECT_DOUBLE_EQ(v, 1e10);
  EXPECT_FALSE(ParseFloat64("1e", &v));
  EXPECT_FALSE(ParseFloat64("1e+", &v));
}

TEST(ParseFloat64Test, SlowPathPrecision) {
  double v;
  // 19+ significant digits exercise the strtod fallback.
  EXPECT_TRUE(ParseFloat64("1234567890.12345678901", &v));
  EXPECT_DOUBLE_EQ(v, 1234567890.12345678901);
  EXPECT_TRUE(ParseFloat64("0.000000000000000000001", &v));
  EXPECT_DOUBLE_EQ(v, 1e-21);
}

TEST(ParseFloat64Test, SlowPathHasNoLengthLimit) {
  // Longer than any fixed stack copy: 1.000...0001 with 600 zeros, and a
  // 700-digit integer.
  double v = 0.0;
  const std::string fraction = "1." + std::string(600, '0') + "1";
  EXPECT_TRUE(ParseFloat64(fraction, &v));
  EXPECT_EQ(v, 1.0);
  const std::string integer = "-7" + std::string(699, '0') + "e-690";
  EXPECT_TRUE(ParseFloat64(integer, &v));
  EXPECT_EQ(v, std::strtod(integer.c_str(), nullptr));
}

TEST(ParseFloat64Test, UnderflowYieldsSignedZero) {
  double v = 1.0;
  EXPECT_TRUE(ParseFloat64("1e-400", &v));
  EXPECT_EQ(v, 0.0);
  EXPECT_FALSE(std::signbit(v));
  v = 1.0;
  EXPECT_TRUE(ParseFloat64("-1e-400", &v));
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(std::signbit(v));
  v = 1.0;
  EXPECT_TRUE(ParseFloat64("+0.000123e-330", &v));
  EXPECT_EQ(v, 0.0);
  EXPECT_FALSE(std::signbit(v));
  // Just above half the smallest subnormal rounds up to it, not to zero.
  EXPECT_TRUE(ParseFloat64("2.4703282292062328e-324", &v));
  EXPECT_EQ(v, std::numeric_limits<double>::denorm_min());
}

TEST(ParseFloat64Test, OverflowIsRejected) {
  double v = 0.0;
  EXPECT_FALSE(ParseFloat64("1e400", &v));
  EXPECT_FALSE(ParseFloat64("-1e400", &v));
  EXPECT_FALSE(ParseFloat64("1.7976931348623159e308", &v));
  EXPECT_FALSE(ParseFloat64("123456789" + std::string(400, '0'), &v));
  EXPECT_TRUE(ParseFloat64("1.7976931348623158e308", &v));
  EXPECT_EQ(v, std::numeric_limits<double>::max());
}

// Seeded numerals — long mantissas, exponents across the subnormal and
// overflow edges, signs — must convert bit-identically to strtod in the
// "C" locale (the process default, asserted), with strtod's infinities
// rejected.
TEST(ParseFloat64Test, SeededNumeralsMatchStrtodBitForBit) {
  ASSERT_STREQ(std::setlocale(LC_NUMERIC, nullptr), "C");
  std::mt19937_64 rng(20200);
  int slow_path = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string numeral;
    const uint64_t sign = rng() % 3;
    if (sign == 1) numeral += '-';
    if (sign == 2) numeral += '+';
    const int int_digits = static_cast<int>(rng() % 24);
    const int frac_digits =
        static_cast<int>(rng() % 24) + (int_digits == 0 ? 1 : 0);
    for (int d = 0; d < int_digits; ++d) {
      numeral += static_cast<char>('0' + rng() % 10);
    }
    if (frac_digits > 0 || rng() % 2 == 0) numeral += '.';
    for (int d = 0; d < frac_digits; ++d) {
      numeral += static_cast<char>('0' + rng() % 10);
    }
    if (rng() % 4 != 0) {
      numeral += (rng() % 2 == 0) ? 'e' : 'E';
      const uint64_t exp_sign = rng() % 3;
      if (exp_sign == 1) numeral += '-';
      if (exp_sign == 2) numeral += '+';
      numeral += std::to_string(rng() % 360);
    }
    if (int_digits + frac_digits > 18 ||
        numeral.find_first_of("eE") != std::string::npos) {
      ++slow_path;
    }
    char* end = nullptr;
    const double want = std::strtod(numeral.c_str(), &end);
    ASSERT_EQ(end, numeral.c_str() + numeral.size()) << numeral;
    double got = 0.0;
    const bool ok = ParseFloat64(numeral, &got);
    if (std::isinf(want)) {
      EXPECT_FALSE(ok) << numeral;
      continue;
    }
    ASSERT_TRUE(ok) << numeral;
    uint64_t want_bits;
    uint64_t got_bits;
    std::memcpy(&want_bits, &want, sizeof(want));
    std::memcpy(&got_bits, &got, sizeof(got));
    ASSERT_EQ(got_bits, want_bits) << numeral;
  }
  EXPECT_GT(slow_path, 10000);
}

TEST(ParseFloat64Test, Malformed) {
  double v;
  EXPECT_FALSE(ParseFloat64("", &v));
  EXPECT_FALSE(ParseFloat64(".", &v));
  EXPECT_FALSE(ParseFloat64("-", &v));
  EXPECT_FALSE(ParseFloat64("1.2.3", &v));
  EXPECT_FALSE(ParseFloat64("abc", &v));
  EXPECT_FALSE(ParseFloat64("nan", &v));
  EXPECT_FALSE(ParseFloat64("inf", &v));
}

TEST(ParseDecimal64Test, ScalesCorrectly) {
  int64_t v;
  EXPECT_TRUE(ParseDecimal64("12.5", 2, &v));
  EXPECT_EQ(v, 1250);
  EXPECT_TRUE(ParseDecimal64("12.50", 2, &v));
  EXPECT_EQ(v, 1250);
  EXPECT_TRUE(ParseDecimal64("12", 2, &v));
  EXPECT_EQ(v, 1200);
  EXPECT_TRUE(ParseDecimal64("-0.05", 2, &v));
  EXPECT_EQ(v, -5);
  EXPECT_TRUE(ParseDecimal64("0.30", 2, &v));
  EXPECT_EQ(v, 30);
}

TEST(ParseDecimal64Test, RejectsExcessFractionAndGarbage) {
  int64_t v;
  EXPECT_FALSE(ParseDecimal64("12.505", 2, &v));
  EXPECT_FALSE(ParseDecimal64("1.2.3", 2, &v));
  EXPECT_FALSE(ParseDecimal64("", 2, &v));
  EXPECT_FALSE(ParseDecimal64(".", 2, &v));
  EXPECT_FALSE(ParseDecimal64("abc", 2, &v));
}

TEST(ParseBoolTest, Variants) {
  bool v;
  EXPECT_TRUE(ParseBool("true", &v));
  EXPECT_TRUE(v);
  EXPECT_TRUE(ParseBool("FALSE", &v));
  EXPECT_FALSE(v);
  EXPECT_TRUE(ParseBool("1", &v));
  EXPECT_TRUE(v);
  EXPECT_TRUE(ParseBool("no", &v));
  EXPECT_FALSE(v);
  EXPECT_FALSE(ParseBool("maybe", &v));
  EXPECT_FALSE(ParseBool("", &v));
}

TEST(ParseDate32Test, EpochAndKnownDates) {
  int32_t v;
  EXPECT_TRUE(ParseDate32("1970-01-01", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseDate32("1970-01-02", &v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ParseDate32("2000-03-01", &v));
  EXPECT_EQ(v, 11017);
  EXPECT_TRUE(ParseDate32("1969-12-31", &v));
  EXPECT_EQ(v, -1);
  EXPECT_TRUE(ParseDate32("2018-06-15", &v));
  EXPECT_EQ(v, 17697);
}

TEST(ParseDate32Test, ValidationIncludingLeapYears) {
  int32_t v;
  EXPECT_TRUE(ParseDate32("2020-02-29", &v));   // leap year
  EXPECT_FALSE(ParseDate32("2019-02-29", &v));  // not a leap year
  EXPECT_FALSE(ParseDate32("1900-02-29", &v));  // century, not leap
  EXPECT_TRUE(ParseDate32("2000-02-29", &v));   // 400-year leap
  EXPECT_FALSE(ParseDate32("2020-13-01", &v));
  EXPECT_FALSE(ParseDate32("2020-00-10", &v));
  EXPECT_FALSE(ParseDate32("2020-04-31", &v));
  EXPECT_FALSE(ParseDate32("2020-4-01", &v));   // fixed-width digits
  EXPECT_FALSE(ParseDate32("2020-04-01x", &v));
}

TEST(ParseTimestampTest, DateAndTime) {
  int64_t v;
  EXPECT_TRUE(ParseTimestampMicros("1970-01-01 00:00:00", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseTimestampMicros("1970-01-01 00:00:01", &v));
  EXPECT_EQ(v, 1000000);
  EXPECT_TRUE(ParseTimestampMicros("1970-01-02T00:00:00", &v));
  EXPECT_EQ(v, int64_t{86400} * 1000000);
  EXPECT_TRUE(ParseTimestampMicros("1969-12-31 23:59:59", &v));
  EXPECT_EQ(v, -1000000);
}

TEST(ParseTimestampTest, FractionalSeconds) {
  int64_t v;
  EXPECT_TRUE(ParseTimestampMicros("1970-01-01 00:00:00.5", &v));
  EXPECT_EQ(v, 500000);
  EXPECT_TRUE(ParseTimestampMicros("1970-01-01 00:00:00.123456", &v));
  EXPECT_EQ(v, 123456);
  // Sub-microsecond digits are truncated.
  EXPECT_TRUE(ParseTimestampMicros("1970-01-01 00:00:00.1234567", &v));
  EXPECT_EQ(v, 123456);
  EXPECT_FALSE(ParseTimestampMicros("1970-01-01 00:00:00.", &v));
}

TEST(ParseTimestampTest, DateOnlyAndMalformed) {
  int64_t v;
  EXPECT_TRUE(ParseTimestampMicros("2018-01-01", &v));
  EXPECT_EQ(v, int64_t{17532} * 86400 * 1000000);
  EXPECT_FALSE(ParseTimestampMicros("2018-01-01 25:00:00", &v));
  EXPECT_FALSE(ParseTimestampMicros("2018-01-01 10:61:00", &v));
  EXPECT_FALSE(ParseTimestampMicros("2018-01-01x10:00:00", &v));
  EXPECT_FALSE(ParseTimestampMicros("", &v));
}

TEST(DaysFromCivilTest, MatchesKnownAnchors) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DaysFromCivil(2000, 1, 1), 10957);
  EXPECT_EQ(DaysFromCivil(1600, 1, 1), -135140);
}

TEST(IsLeapYearTest, Rules) {
  EXPECT_TRUE(IsLeapYear(2020));
  EXPECT_FALSE(IsLeapYear(2019));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_TRUE(IsLeapYear(2000));
}

}  // namespace
}  // namespace parparaw
