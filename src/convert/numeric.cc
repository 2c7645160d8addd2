#include "convert/numeric.h"

#include <charconv>
#include <limits>
#include <system_error>

#include "util/string_util.h"

namespace parparaw {

namespace {

inline bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Consumes an optional sign; returns +1/-1.
inline int ConsumeSign(std::string_view* s) {
  if (!s->empty() && ((*s)[0] == '+' || (*s)[0] == '-')) {
    const int sign = (*s)[0] == '-' ? -1 : 1;
    s->remove_prefix(1);
    return sign;
  }
  return 1;
}

// Decimal exponent of the leading nonzero digit of a validated numeral's
// mantissa (digits[.digits], any exponent part ignored): 2 for "123.4",
// -3 for "0.00123". 0 when every digit is zero.
int64_t LeadingDigitExponent(std::string_view body) {
  size_t i = 0;
  while (i < body.size() && body[i] == '0') ++i;
  int64_t integer_digits = 0;
  for (; i < body.size() && IsDigit(body[i]); ++i) ++integer_digits;
  if (integer_digits > 0) return integer_digits - 1;
  if (i < body.size() && body[i] == '.') {
    ++i;
    int64_t zeros = 0;
    for (; i < body.size() && body[i] == '0'; ++i) ++zeros;
    if (i < body.size() && IsDigit(body[i])) return -(zeros + 1);
  }
  return 0;
}

}  // namespace

bool ParseInt64(std::string_view s, int64_t* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  const int sign = ConsumeSign(&s);
  if (s.empty()) return false;
  // Accumulate negatively: the magnitude of INT64_MIN exceeds INT64_MAX.
  int64_t acc = 0;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  for (char c : s) {
    if (!IsDigit(c)) return false;
    const int digit = c - '0';
    if (acc < (kMin + digit) / 10) return false;  // overflow
    acc = acc * 10 - digit;
  }
  if (sign > 0) {
    if (acc == kMin) return false;  // +9223372036854775808 overflows
    acc = -acc;
  }
  *out = acc;
  return true;
}

bool ParseInt32(std::string_view s, int32_t* out) {
  int64_t wide;
  if (!ParseInt64(s, &wide)) return false;
  if (wide < std::numeric_limits<int32_t>::min() ||
      wide > std::numeric_limits<int32_t>::max()) {
    return false;
  }
  *out = static_cast<int32_t>(wide);
  return true;
}

bool ParseFloat64(std::string_view s, double* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  std::string_view body = s;
  const int sign = ConsumeSign(&body);
  if (body.empty()) return false;

  // Fast path (Clinger): when the mantissa fits in a double exactly
  // (< 2^53) and the power of ten is itself exact (|e| <= 22), one
  // multiply or divide of two exact values rounds once — the result is
  // correctly rounded, bit-identical to strtod. Larger mantissas fall
  // through to the slow path; digits <= 18 only bounds uint64
  // accumulation.
  uint64_t mantissa = 0;
  int digits = 0;
  int frac_digits = 0;
  size_t i = 0;
  bool any_digit = false;
  for (; i < body.size() && IsDigit(body[i]); ++i) {
    mantissa = mantissa * 10 + (body[i] - '0');
    ++digits;
    any_digit = true;
  }
  if (i < body.size() && body[i] == '.') {
    ++i;
    for (; i < body.size() && IsDigit(body[i]); ++i) {
      mantissa = mantissa * 10 + (body[i] - '0');
      ++digits;
      ++frac_digits;
      any_digit = true;
    }
  }
  if (!any_digit) return false;
  int exponent = 0;
  bool has_exp = false;
  if (i < body.size() && (body[i] == 'e' || body[i] == 'E')) {
    has_exp = true;
    ++i;
    int exp_sign = 1;
    if (i < body.size() && (body[i] == '+' || body[i] == '-')) {
      exp_sign = body[i] == '-' ? -1 : 1;
      ++i;
    }
    if (i >= body.size()) return false;
    int exp_acc = 0;
    for (; i < body.size() && IsDigit(body[i]); ++i) {
      exp_acc = exp_acc * 10 + (body[i] - '0');
      if (exp_acc > 10000) return false;
    }
    exponent = exp_sign * exp_acc;
  }
  if (i != body.size()) return false;  // trailing garbage

  const int total_exp = exponent - frac_digits;
  if (digits <= 18 && mantissa < (uint64_t{1} << 53) && total_exp >= -22 &&
      total_exp <= 22 && !has_exp) {
    static constexpr double kPow10[] = {
        1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10,
        1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21,
        1e22};
    double value = static_cast<double>(mantissa);
    if (total_exp >= 0) {
      value *= kPow10[total_exp];
    } else {
      value /= kPow10[-total_exp];
    }
    *out = sign * value;
    return true;
  }

  // Slow path: a correctly rounded conversion of the sign-stripped body —
  // locale-independent, no copy, no length limit — bit-identical to strtod
  // in the "C" locale.
  double value = 0.0;
  const char* const body_end = body.data() + body.size();
  const std::from_chars_result parsed =
      std::from_chars(body.data(), body_end, value);
  if (parsed.ptr != body_end) return false;
  if (parsed.ec == std::errc::result_out_of_range) {
    // from_chars leaves `value` untouched when the result rounds to zero or
    // to infinity. Underflow yields ±0.0 (as strtod does); overflow is
    // rejected like any infinity.
    if (LeadingDigitExponent(body) + exponent >= 0) return false;
    value = 0.0;
  } else if (parsed.ec != std::errc()) {
    return false;
  }
  *out = sign < 0 ? -value : value;
  return true;
}

bool ParseDecimal64(std::string_view s, int32_t scale, int64_t* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  const int sign = ConsumeSign(&s);
  if (s.empty()) return false;
  uint64_t acc = 0;
  int frac_seen = -1;  // -1: before the point
  bool any_digit = false;
  constexpr uint64_t kMaxBeforeMul =
      std::numeric_limits<int64_t>::max() / 10;
  for (char c : s) {
    if (c == '.') {
      if (frac_seen >= 0) return false;  // second point
      frac_seen = 0;
      continue;
    }
    if (!IsDigit(c)) return false;
    if (frac_seen >= 0) {
      if (frac_seen == scale) return false;  // excess fractional digits
      ++frac_seen;
    }
    if (acc > kMaxBeforeMul) return false;
    acc = acc * 10 + (c - '0');
    any_digit = true;
  }
  if (!any_digit) return false;
  const int pad = scale - (frac_seen < 0 ? 0 : frac_seen);
  for (int d = 0; d < pad; ++d) {
    if (acc > kMaxBeforeMul) return false;
    acc *= 10;
  }
  if (acc > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return false;
  }
  *out = sign * static_cast<int64_t>(acc);
  return true;
}

bool ParseBool(std::string_view s, bool* out) {
  s = TrimWhitespace(s);
  if (EqualsIgnoreCase(s, "true") || EqualsIgnoreCase(s, "t") ||
      EqualsIgnoreCase(s, "1") || EqualsIgnoreCase(s, "yes")) {
    *out = true;
    return true;
  }
  if (EqualsIgnoreCase(s, "false") || EqualsIgnoreCase(s, "f") ||
      EqualsIgnoreCase(s, "0") || EqualsIgnoreCase(s, "no")) {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace parparaw
