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
  // Fast path: from_chars, when it takes the whole field. Everything it
  // refuses (surrounding space, a leading '+', hex floats, inf/nan
  // spellings, overflow, underflow, errors) goes to strtod below, which
  // decides as before; both round correctly, so they agree on the rest.
  double fast = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, fast);
  if (ec == std::errc() && ptr == end && std::isfinite(fast)) return fast;

  const std::string buf(Trim(text));
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
  // Fast path as in ParseDouble; strtoll decides everything else.
  int64_t fast = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, fast);
  if (ec == std::errc() && ptr == end) return fast;

  const std::string buf(Trim(text));
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

void AppendDouble(double v, std::string* out) {
  char buf[32];
  // Integral values render without an exponent ("20", not "2e+01"),
  // and -0.0 keeps its sign as "-0". (NaN and the infinities fail the
  // bound.)
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    if (std::signbit(v) && v == 0) out->push_back('-');
    const auto r =
        std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v));
    out->append(buf, r.ptr);
    return;
  }
  if (std::isnan(v)) {
    out->append(std::signbit(v) ? "-nan" : "nan");
    return;
  }
  if (std::isinf(v)) {
    out->append(v < 0 ? "-inf" : "inf");
    return;
  }
  // Otherwise "%.Pg" for the fewest digits P that round-trip. The
  // shortest round-trip digits are the correctly rounded P-digit value,
  // so they are exactly the digits "%.Pg" prints; only the layout is
  // left to do. Scientific to_chars, written straight into `*out`, gives
  // them as "-d.ddde-XX", which is already "%.Pg"'s exponent layout.
  const size_t at = out->size();
  out->resize(at + 32);
  char* const sci = out->data() + at;
  char* const sci_end =
      std::to_chars(sci, sci + 32, v, std::chars_format::scientific).ptr;
  char* const lead = sci + (sci[0] == '-' ? 1 : 0);  // the first digit
  const char* e = sci_end - 4;  // two or three exponent digits follow 'e'
  while (*e != 'e') --e;
  const int num_digits = e - lead > 1 ? static_cast<int>(e - lead - 1) : 1;
  int exp = 0;
  for (const char* p = e + 2; p < sci_end; ++p) exp = exp * 10 + (*p - '0');
  if (e[1] == '-') exp = -exp;

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
    out->resize(at);
    out->append(buf);
    return;
  }
  if (exp < -4 || exp >= num_digits) {
    out->resize(static_cast<size_t>(sci_end - out->data()));
    return;
  }
  // Fixed notation, laid out in place: the first exp + 1 digits go
  // before the point. "d.ddd" has its digits after the first at lead + 2.
  char* end;
  if (exp < 0) {
    // "0." and -exp - 1 zeros before all the digits.
    const int zeros = -exp - 1;
    const char first = *lead;
    std::memmove(lead + 3 + zeros, lead + 2, num_digits - 1);
    lead[2 + zeros] = first;
    std::memset(lead + 2, '0', zeros);
    lead[0] = '0';
    lead[1] = '.';
    end = lead + 3 + zeros + num_digits - 1;
  } else {
    // Move the point right by exp digits (dropped when none follow).
    std::memmove(lead + 1, lead + 2, exp);
    lead[1 + exp] = '.';
    end = lead + (num_digits > exp + 1 ? num_digits + 1 : num_digits);
  }
  out->resize(static_cast<size_t>(end - out->data()));
}

std::string FormatDouble(double v) {
  std::string out;
  AppendDouble(v, &out);
  return out;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace icewafl
