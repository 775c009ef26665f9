#ifndef ICEWAFL_UTIL_STRINGS_H_
#define ICEWAFL_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace icewafl {

/// \brief Splits `text` on `sep`; empty fields are preserved.
std::vector<std::string> Split(std::string_view text, char sep);

/// \brief Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// \brief ASCII lower-case copy.
std::string ToLower(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// \brief Strict double parse (whole string must be consumed).
Result<double> ParseDouble(std::string_view text);

/// \brief Strict int64 parse (whole string must be consumed).
Result<int64_t> ParseInt64(std::string_view text);

/// \brief Shortest round-trip formatting of a double ("%.17g" trimmed).
std::string FormatDouble(double v);

/// \brief Same rendering, appended to `*out` (a record being built).
void AppendDouble(double v, std::string* out);

/// \brief Fixed-precision formatting ("%.*f").
std::string FormatDouble(double v, int precision);

}  // namespace icewafl

#endif  // ICEWAFL_UTIL_STRINGS_H_
