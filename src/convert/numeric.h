#ifndef PARPARAW_CONVERT_NUMERIC_H_
#define PARPARAW_CONVERT_NUMERIC_H_

#include <cstdint>
#include <string_view>

namespace parparaw {

/// String-to-value converters used by the convert step (§3.3).
///
/// All converters are branch-light, allocation-free, locale-independent,
/// and accept optional surrounding ASCII whitespace. They return false on
/// any malformed input (which the parser turns into a NULL or a record
/// reject, Fig. 5).

/// Parses a signed decimal integer. Rejects empty input, overflow, and
/// trailing garbage.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a 32-bit signed integer (range-checked via ParseInt64).
bool ParseInt32(std::string_view s, int32_t* out);

/// Parses a floating-point number: [+-]digits[.digits][(e|E)[+-]digits].
/// Uses an exact fast path for typical short inputs and falls back to
/// std::from_chars for long/extreme ones; the result is correctly rounded
/// and independent of the process locale. Underflow yields ±0.0; overflow
/// is rejected.
bool ParseFloat64(std::string_view s, double* out);

/// Parses a fixed-point decimal with `scale` fractional digits into a
/// scaled int64 (e.g. "12.5" with scale 2 -> 1250). Excess fractional
/// digits are rejected; missing ones are zero-padded.
bool ParseDecimal64(std::string_view s, int32_t scale, int64_t* out);

/// Parses booleans: true/false, t/f, 1/0, yes/no (case-insensitive).
bool ParseBool(std::string_view s, bool* out);

}  // namespace parparaw

#endif  // PARPARAW_CONVERT_NUMERIC_H_
