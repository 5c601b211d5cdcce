// Copyright 2026 The LTAM Authors.
// Small string helpers shared across modules.

#ifndef LTAM_UTIL_STRING_UTIL_H_
#define LTAM_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace ltam {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on `sep`, dropping empty fields and trimming whitespace.
std::vector<std::string> SplitAndTrim(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// ASCII lower-casing (locale-independent).
std::string ToLower(std::string_view s);
/// ASCII upper-casing (locale-independent).
std::string ToUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Parses a signed 64-bit integer; the whole string must be consumed.
Result<int64_t> ParseInt64(std::string_view s);

/// ParseInt64 plus a range: the value must lie in [lo, hi].
/// InvalidArgument naming the range otherwise.
Result<int64_t> ParseInt64InRange(std::string_view s, int64_t lo, int64_t hi);

/// Parses a double; the whole string must be consumed.
Result<double> ParseDouble(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace ltam

#endif  // LTAM_UTIL_STRING_UTIL_H_
