#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace icewafl {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

Result<double> ParseDouble(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  // Fast path: from_chars, when it takes the whole field. Everything it
  // refuses (a leading '+', hex floats, inf/nan spellings, overflow,
  // underflow, errors) goes to strtod below, which decides as before.
  double fast = 0.0;
  const char* end = trimmed.data() + trimmed.size();
  const auto [ptr, ec] = std::from_chars(trimmed.data(), end, fast);
  if (ec == std::errc() && ptr == end && std::isfinite(fast)) return fast;

  const std::string buf(trimmed);
  if (buf.empty()) return Status::ParseError("empty string is not a double");
  errno = 0;
  char* parsed_end = nullptr;
  const double v = std::strtod(buf.c_str(), &parsed_end);
  if (parsed_end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing characters in double: '" + buf + "'");
  }
  if (errno == ERANGE && !std::isfinite(v)) {
    return Status::OutOfRange("double out of range: '" + buf + "'");
  }
  return v;
}

Result<int64_t> ParseInt64(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  // Fast path as in ParseDouble; strtoll decides everything else.
  int64_t fast = 0;
  const char* end = trimmed.data() + trimmed.size();
  const auto [ptr, ec] = std::from_chars(trimmed.data(), end, fast);
  if (ec == std::errc() && ptr == end) return fast;

  const std::string buf(trimmed);
  if (buf.empty()) return Status::ParseError("empty string is not an integer");
  errno = 0;
  char* parsed_end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &parsed_end, 10);
  if (parsed_end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing characters in integer: '" + buf + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

void FormatDoubleTo(double v, std::string* out) {
  char buf[32];
  // Integral values render without an exponent ("20", not "2e+01").
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    const auto r =
        std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v));
    out->assign(buf, r.ptr);
    return;
  }
  if (std::isnan(v)) {
    *out = std::signbit(v) ? "-nan" : "nan";
    return;
  }
  if (std::isinf(v)) {
    *out = v < 0 ? "-inf" : "inf";
    return;
  }
  // Otherwise "%.Pg" for the fewest digits P that round-trip. The
  // shortest round-trip digits are the correctly rounded P-digit value,
  // so they are exactly the digits "%.Pg" prints; only the layout is
  // left to do. Scientific to_chars gives them as "-d.ddde-XX".
  char sci[32];
  const char* sci_end = std::to_chars(sci, sci + sizeof(sci), v,
                                      std::chars_format::scientific)
                            .ptr;
  const bool negative = sci[0] == '-';
  const char* p = sci + (negative ? 1 : 0);
  char digits[17];
  int num_digits = 0;
  for (; *p != 'e'; ++p) {
    if (*p != '.') digits[num_digits++] = *p;
  }
  ++p;  // 'e'
  if (*p == '+') ++p;
  int exp = 0;
  std::from_chars(p, sci_end, exp);

  // One exception: below a power of two the rounding interval is half as
  // wide as above it, so the shortest digits may lie above v while the
  // P-digit value nearest v falls outside the interval below. Then
  // "%.Pg" does not round-trip and more digits are needed; for exact
  // powers of two, probe them from P up.
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  if ((bits & ((uint64_t{1} << 52) - 1)) == 0) {
    for (int prec = num_digits; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
      if (std::strtod(buf, nullptr) == v) break;
    }
    *out = buf;
    return;
  }

  char* o = buf;
  if (negative) *o++ = '-';
  if (exp >= -4 && exp < num_digits) {
    // Fixed notation: digits[0..exp] before the point.
    if (exp < 0) {
      *o++ = '0';
      *o++ = '.';
      for (int i = -1; i > exp; --i) *o++ = '0';
      std::memcpy(o, digits, num_digits);
      o += num_digits;
    } else {
      std::memcpy(o, digits, exp + 1);
      o += exp + 1;
      if (num_digits > exp + 1) {
        *o++ = '.';
        std::memcpy(o, digits + exp + 1, num_digits - exp - 1);
        o += num_digits - exp - 1;
      }
    }
  } else {
    // "d.ddde+XX": at least two exponent digits.
    *o++ = digits[0];
    if (num_digits > 1) {
      *o++ = '.';
      std::memcpy(o, digits + 1, num_digits - 1);
      o += num_digits - 1;
    }
    *o++ = 'e';
    *o++ = exp < 0 ? '-' : '+';
    const int mag = exp < 0 ? -exp : exp;
    if (mag < 10) *o++ = '0';
    o = std::to_chars(o, buf + sizeof(buf), mag).ptr;
  }
  out->assign(buf, o);
}

std::string FormatDouble(double v) {
  std::string out;
  FormatDoubleTo(v, &out);
  return out;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace icewafl
