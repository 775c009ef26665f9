#ifndef ICEWAFL_UTIL_REGEX_H_
#define ICEWAFL_UTIL_REGEX_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace icewafl {

/// \brief A regular expression compiled once into a DFA, for the full
/// match that std::regex_match decides under ECMAScript.
///
/// Compile parses the pattern, builds a Thompson NFA and runs subset
/// construction over byte classes, capped at kMaxStates DFA states; a
/// match is then one table lookup per byte. The accepted syntax is the
/// part of ECMAScript that a DFA decides exactly:
///  - literal bytes, and the escapes `\n \r \t \f \v \0`, `\xHH`, and a
///    backslash before any ASCII punctuation;
///  - `.` (any byte but `\n` and `\r`), `\d \D \w \W \s \S`, and
///    `[...]` / `[^...]` with ASCII ranges;
///  - groups `(...)` and `(?:...)`, `|`, and `* + ? {m} {m,} {m,n}`,
///    greedy or lazy (both accept the same strings under a full match);
///  - a leading `^` and a trailing `$`.
/// Anything else is refused with the construct named in the Status:
/// backreferences, lookaround, `\b` and `\B`, other anchors, `\c` and
/// `\u` escapes, POSIX bracket classes, stacked quantifiers, and
/// patterns over the state caps. An invalid pattern is an error too;
/// Compile never throws.
class Regex {
 public:
  static constexpr size_t kMaxStates = 1024;

  /// \brief InvalidArgument, naming the construct and its offset, for a
  /// pattern that is invalid or outside the subset.
  static Result<Regex> Compile(std::string_view pattern);

  /// \brief True iff the whole of `text` matches.
  bool FullMatch(std::string_view text) const {
    uint32_t state = start_;
    for (unsigned char c : text) {
      state = next_[state * num_classes_ + class_of_[c]];
      if (state == kDead) return false;
    }
    return accepting_[state] != 0;
  }

  const std::string& pattern() const { return pattern_; }

 private:
  /// The state with no way to accept; every table starts with it.
  static constexpr uint32_t kDead = 0;

  Regex() = default;

  std::string pattern_;
  /// Byte -> class; bytes of one class move every state alike.
  std::array<uint8_t, 256> class_of_{};
  uint32_t num_classes_ = 1;
  uint32_t start_ = kDead;
  /// next_[state * num_classes_ + class] is the successor state.
  std::vector<uint16_t> next_;
  std::vector<uint8_t> accepting_;
};

}  // namespace icewafl

#endif  // ICEWAFL_UTIL_REGEX_H_
