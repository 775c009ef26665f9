#include "util/regex.h"

#include <algorithm>
#include <bitset>
#include <cctype>
#include <map>
#include <utility>

namespace icewafl {

namespace {

using ByteSet = std::bitset<256>;

/// No upper bound on a repetition.
constexpr int kUnbounded = -1;
/// Caps that keep compilation bounded: NFA states, repetition counts
/// and group nesting.
constexpr size_t kMaxNfaStates = 8192;
constexpr int kMaxCount = 1000;
constexpr int kMaxDepth = 64;

/// One node of the parsed pattern.
struct Node {
  enum Kind { kEmpty, kSet, kConcat, kAlt, kRepeat };
  Kind kind = kEmpty;
  ByteSet set;            // kSet
  std::vector<int> kids;  // kConcat, kAlt; kRepeat has one
  int min = 0;            // kRepeat
  int max = 0;            // kRepeat; kUnbounded for no bound
};

ByteSet Single(unsigned char c) {
  ByteSet s;
  s.set(c);
  return s;
}

ByteSet Where(int (*is)(int)) {
  ByteSet s;
  for (int c = 0; c < 128; ++c) {
    if (is(c)) s.set(static_cast<size_t>(c));
  }
  return s;
}

int IsWord(int c) { return std::isalnum(c) || c == '_' ? 1 : 0; }

/// Recursive-descent parser of the accepted subset into Nodes.
class Parser {
 public:
  explicit Parser(std::string_view pattern) : p_(pattern) {}

  Result<int> Parse() {
    ICEWAFL_ASSIGN_OR_RETURN(int root, Alternation(0));
    if (pos_ < p_.size()) return Invalid("unmatched ')'");
    return root;
  }

  std::vector<Node>& nodes() { return nodes_; }

 private:
  int Add(Node node) {
    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size() - 1);
  }

  int AddSet(ByteSet set) {
    Node n;
    n.kind = Node::kSet;
    n.set = set;
    return Add(std::move(n));
  }

  bool At(char c) const { return pos_ < p_.size() && p_[pos_] == c; }

  Status Invalid(const std::string& what) const {
    return Status::InvalidArgument("invalid regex: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  Status Refused(const std::string& construct) const {
    return Status::InvalidArgument(
        "regex construct not supported: " + construct + " at offset " +
        std::to_string(pos_) +
        " (supported: literals, escapes, classes, groups, '|' and "
        "quantifiers)");
  }

  Result<int> Alternation(int depth) {
    std::vector<int> kids;
    ICEWAFL_ASSIGN_OR_RETURN(int first, Concat(depth));
    kids.push_back(first);
    while (At('|')) {
      ++pos_;
      ICEWAFL_ASSIGN_OR_RETURN(int next, Concat(depth));
      kids.push_back(next);
    }
    if (kids.size() == 1) return kids.front();
    Node n;
    n.kind = Node::kAlt;
    n.kids = std::move(kids);
    return Add(std::move(n));
  }

  Result<int> Concat(int depth) {
    Node n;
    n.kind = Node::kConcat;
    while (pos_ < p_.size() && !At('|') && !At(')')) {
      ICEWAFL_ASSIGN_OR_RETURN(int kid, Repeat(depth));
      n.kids.push_back(kid);
    }
    if (n.kids.empty()) return Add(Node{});
    if (n.kids.size() == 1) return n.kids.front();
    return Add(std::move(n));
  }

  static bool IsQuantifier(char c) {
    return c == '*' || c == '+' || c == '?' || c == '{';
  }

  Result<int> Repeat(int depth) {
    bool quantifiable = true;
    ICEWAFL_ASSIGN_OR_RETURN(int atom, Atom(depth, &quantifiable));
    if (pos_ >= p_.size() || !IsQuantifier(p_[pos_])) return atom;
    if (!quantifiable) return Invalid("nothing to repeat");
    int min = 0;
    int max = kUnbounded;
    const char q = p_[pos_++];
    if (q == '+') {
      min = 1;
    } else if (q == '?') {
      max = 1;
    } else if (q == '{') {
      ICEWAFL_ASSIGN_OR_RETURN(min, Count());
      max = min;
      if (At(',')) {
        ++pos_;
        max = kUnbounded;
        if (!At('}')) {
          ICEWAFL_ASSIGN_OR_RETURN(max, Count());
        }
      }
      if (!At('}')) return Invalid("unterminated '{' quantifier");
      ++pos_;
      if (max != kUnbounded && max < min) {
        return Invalid("repetition {" + std::to_string(min) + "," +
                       std::to_string(max) + "} out of order");
      }
    }
    if (At('?')) ++pos_;  // lazy: the same strings match in full
    if (pos_ < p_.size() && IsQuantifier(p_[pos_])) {
      return Refused("stacked quantifier '" + std::string(1, p_[pos_]) + "'");
    }
    Node n;
    n.kind = Node::kRepeat;
    n.kids.push_back(atom);
    n.min = min;
    n.max = max;
    return Add(std::move(n));
  }

  Result<int> Count() {
    if (pos_ >= p_.size() || !std::isdigit(static_cast<unsigned char>(p_[pos_]))) {
      return Invalid("'{' quantifier without a count");
    }
    int value = 0;
    while (pos_ < p_.size() &&
           std::isdigit(static_cast<unsigned char>(p_[pos_]))) {
      value = value * 10 + (p_[pos_++] - '0');
      if (value > kMaxCount) {
        return Refused("repetition count over " + std::to_string(kMaxCount));
      }
    }
    return value;
  }

  Result<int> Atom(int depth, bool* quantifiable) {
    const char c = p_[pos_];
    switch (c) {
      case '(':
        return Group(depth);
      case '[':
        return Class();
      case '.': {
        ++pos_;
        ByteSet any;
        any.set();
        any.reset('\n');
        any.reset('\r');
        return AddSet(any);
      }
      case '\\': {
        ICEWAFL_ASSIGN_OR_RETURN(ByteSet set, Escape(false, nullptr));
        return AddSet(set);
      }
      case '^':
        if (pos_ != 0) return Refused("anchor '^' after the pattern's start");
        ++pos_;
        *quantifiable = false;
        return Add(Node{});
      case '$':
        if (pos_ + 1 != p_.size()) {
          return Refused("anchor '$' before the pattern's end");
        }
        ++pos_;
        *quantifiable = false;
        return Add(Node{});
      case '*':
      case '+':
      case '?':
      case '{':
        return Invalid("nothing to repeat");
      default:
        ++pos_;
        return AddSet(Single(static_cast<unsigned char>(c)));
    }
  }

  Result<int> Group(int depth) {
    if (depth >= kMaxDepth) {
      return Refused("groups nested over " + std::to_string(kMaxDepth) +
                     " deep");
    }
    ++pos_;  // '('
    if (At('?')) {
      const char kind = pos_ + 1 < p_.size() ? p_[pos_ + 1] : '\0';
      if (kind == '=' || kind == '!') {
        return Refused(std::string("lookahead '(?") + kind + "'");
      }
      if (kind == '<') return Refused("lookbehind or named group '(?<'");
      if (kind != ':') return Invalid("unknown group '(?'");
      pos_ += 2;
    }
    ICEWAFL_ASSIGN_OR_RETURN(int inner, Alternation(depth + 1));
    if (!At(')')) return Invalid("unmatched '('");
    ++pos_;
    return inner;
  }

  /// One escape, `pos_` at the backslash. `*is_class` (when non-null)
  /// tells a class escape (\d ...) from a single byte.
  Result<ByteSet> Escape(bool in_class, bool* is_class) {
    ++pos_;
    if (pos_ >= p_.size()) return Invalid("trailing backslash");
    const unsigned char c = static_cast<unsigned char>(p_[pos_]);
    if (is_class != nullptr) *is_class = false;
    int (*in)(int) = nullptr;
    switch (std::tolower(c)) {
      case 'd':
        in = std::isdigit;
        break;
      case 'w':
        in = IsWord;
        break;
      case 's':
        in = std::isspace;
        break;
    }
    if (in != nullptr) {
      ++pos_;
      if (is_class != nullptr) *is_class = true;
      return std::isupper(c) ? ~Where(in) : Where(in);
    }
    static constexpr std::string_view kNamed = "nrtfv0";
    // The terminating NUL is the byte of `\0`.
    static constexpr char kNamedBytes[] = "\n\r\t\f\v";
    if (const size_t k = kNamed.find(static_cast<char>(c));
        k != std::string_view::npos) {
      ++pos_;
      return Single(static_cast<unsigned char>(kNamedBytes[k]));
    }
    switch (c) {
      case 'x': {
        int value = 0;
        for (int i = 1; i <= 2; ++i) {
          const char h = pos_ + i < p_.size() ? p_[pos_ + i] : '\0';
          if (!std::isxdigit(static_cast<unsigned char>(h))) {
            return Invalid("'\\x' without two hex digits");
          }
          value = value * 16 + (std::isdigit(static_cast<unsigned char>(h))
                                    ? h - '0'
                                    : std::tolower(h) - 'a' + 10);
        }
        pos_ += 3;
        return Single(static_cast<unsigned char>(value));
      }
      case 'b':
        return Refused(in_class ? "backspace escape '\\b' in a class"
                                : "word boundary '\\b'");
      case 'B':
        return Refused("word boundary '\\B'");
      case 'c':
        return Refused("control escape '\\c'");
      case 'u':
        return Refused("unicode escape '\\u'");
      default:
        break;
    }
    if (c >= '1' && c <= '9') {
      return Refused(std::string("backreference '\\") +
                     static_cast<char>(c) + "'");
    }
    if (c >= 128 || std::isalnum(c)) {
      return Refused("escape '\\" + std::string(1, static_cast<char>(c)) +
                     "'");
    }
    ++pos_;
    return Single(c);
  }

  /// One class member, `pos_` at it: a byte or an escape.
  Result<ByteSet> ClassItem(bool* is_class, unsigned char* byte) {
    const char c = p_[pos_];
    if (c == '\\') {
      ICEWAFL_ASSIGN_OR_RETURN(ByteSet set, Escape(true, is_class));
      if (!*is_class) {
        for (size_t b = 0; b < 256; ++b) {
          if (set.test(b)) *byte = static_cast<unsigned char>(b);
        }
      }
      return set;
    }
    if (c == '[' && pos_ + 1 < p_.size() &&
        (p_[pos_ + 1] == ':' || p_[pos_ + 1] == '.' || p_[pos_ + 1] == '=')) {
      return Refused("POSIX bracket '[" + std::string(1, p_[pos_ + 1]) +
                     "' in a class");
    }
    ++pos_;
    *is_class = false;
    *byte = static_cast<unsigned char>(c);
    return Single(*byte);
  }

  Result<int> Class() {
    ++pos_;  // '['
    const bool negate = At('^');
    if (negate) ++pos_;
    if (At(']')) return Refused(negate ? "empty class '[^]'" : "empty class '[]'");
    ByteSet set;
    bool after_range = false;
    while (!At(']')) {
      if (pos_ >= p_.size()) return Invalid("unmatched '['");
      const bool dash = At('-');
      if (dash && after_range && pos_ + 1 < p_.size() && p_[pos_ + 1] != ']') {
        return Refused("'-' right after a range in a class");
      }
      bool is_class = false;
      unsigned char lo = 0;
      ICEWAFL_ASSIGN_OR_RETURN(ByteSet item, ClassItem(&is_class, &lo));
      after_range = false;
      if (!At('-') || pos_ + 1 >= p_.size() || p_[pos_ + 1] == ']') {
        set |= item;
        continue;
      }
      // A range: item '-' item.
      if (is_class) return Invalid("class escape as a range start");
      if (dash) return Refused("'-' as a range endpoint");
      ++pos_;
      if (At('-')) return Refused("'-' as a range endpoint");
      unsigned char hi = 0;
      ICEWAFL_RETURN_NOT_OK(ClassItem(&is_class, &hi).status());
      if (is_class) return Invalid("class escape as a range end");
      if (lo >= 128 || hi >= 128) return Refused("non-ASCII range endpoint");
      if (lo > hi) return Invalid("class range out of order");
      for (unsigned b = lo; b <= hi; ++b) set.set(b);
      after_range = true;
    }
    ++pos_;  // ']'
    return AddSet(negate ? ~set : set);
  }

  std::string_view p_;
  size_t pos_ = 0;
  std::vector<Node> nodes_;
};

/// Thompson NFA over the parsed nodes, built back to front: Build(node,
/// next) returns the start of a fragment whose every path ends in `next`.
class Nfa {
 public:
  struct State {
    int set = -1;  // index into sets(); -1 for an epsilon-only state
    int out = -1;  // target on a byte in the set
    std::vector<int> eps;
  };

  explicit Nfa(const std::vector<Node>& nodes) : nodes_(nodes) {}

  Result<int> NewState() {
    if (states_.size() >= kMaxNfaStates) {
      return Status::InvalidArgument(
          "regex construct not supported: pattern over " +
          std::to_string(kMaxNfaStates) + " NFA states");
    }
    states_.emplace_back();
    return static_cast<int>(states_.size() - 1);
  }

  Result<int> Build(int id, int next) {
    const Node& node = nodes_[static_cast<size_t>(id)];
    switch (node.kind) {
      case Node::kEmpty:
        return next;
      case Node::kSet: {
        ICEWAFL_ASSIGN_OR_RETURN(int s, NewState());
        states_[s].set = SetIndex(node.set);
        states_[s].out = next;
        return s;
      }
      case Node::kConcat:
        for (auto it = node.kids.rbegin(); it != node.kids.rend(); ++it) {
          ICEWAFL_ASSIGN_OR_RETURN(next, Build(*it, next));
        }
        return next;
      case Node::kAlt: {
        std::vector<int> starts;
        for (int kid : node.kids) {
          ICEWAFL_ASSIGN_OR_RETURN(int start, Build(kid, next));
          starts.push_back(start);
        }
        ICEWAFL_ASSIGN_OR_RETURN(int s, NewState());
        states_[s].eps = std::move(starts);
        return s;
      }
      case Node::kRepeat: {
        const int kid = node.kids.front();
        int cur = next;
        if (node.max == kUnbounded) {
          ICEWAFL_ASSIGN_OR_RETURN(int loop, NewState());
          ICEWAFL_ASSIGN_OR_RETURN(int body, Build(kid, loop));
          states_[loop].eps = {body, next};
          cur = loop;
        } else {
          for (int i = node.min; i < node.max; ++i) {
            ICEWAFL_ASSIGN_OR_RETURN(int body, Build(kid, cur));
            ICEWAFL_ASSIGN_OR_RETURN(int skip, NewState());
            states_[skip].eps = {body, cur};
            cur = skip;
          }
        }
        for (int i = 0; i < node.min; ++i) {
          ICEWAFL_ASSIGN_OR_RETURN(cur, Build(kid, cur));
        }
        return cur;
      }
    }
    return next;
  }

  const std::vector<State>& states() const { return states_; }
  const std::vector<ByteSet>& sets() const { return sets_; }

 private:
  int SetIndex(const ByteSet& set) {
    for (size_t i = 0; i < sets_.size(); ++i) {
      if (sets_[i] == set) return static_cast<int>(i);
    }
    sets_.push_back(set);
    return static_cast<int>(sets_.size() - 1);
  }

  const std::vector<Node>& nodes_;
  std::vector<State> states_;
  std::vector<ByteSet> sets_;
};

/// The epsilon closure of `seeds`, sorted.
std::vector<int> Closure(const std::vector<Nfa::State>& states,
                         std::vector<int> seeds) {
  std::vector<bool> seen(states.size(), false);
  std::vector<int> out;
  while (!seeds.empty()) {
    const int s = seeds.back();
    seeds.pop_back();
    if (seen[static_cast<size_t>(s)]) continue;
    seen[static_cast<size_t>(s)] = true;
    out.push_back(s);
    for (int e : states[static_cast<size_t>(s)].eps) seeds.push_back(e);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Result<Regex> Regex::Compile(std::string_view pattern) {
  Parser parser(pattern);
  ICEWAFL_ASSIGN_OR_RETURN(int root, parser.Parse());
  Nfa nfa(parser.nodes());
  ICEWAFL_ASSIGN_OR_RETURN(int accept, nfa.NewState());
  ICEWAFL_ASSIGN_OR_RETURN(int start, nfa.Build(root, accept));
  const std::vector<Nfa::State>& states = nfa.states();

  Regex regex;
  regex.pattern_ = std::string(pattern);
  // Byte classes: refine one class of all bytes by every set in use.
  std::array<uint8_t, 256> representative{};
  uint32_t classes = 1;
  for (const ByteSet& set : nfa.sets()) {
    std::map<std::pair<uint8_t, bool>, uint8_t> split;
    uint32_t next_classes = 0;
    for (size_t b = 0; b < 256; ++b) {
      auto [it, added] = split.try_emplace(
          {regex.class_of_[b], set.test(b)},
          static_cast<uint8_t>(next_classes));
      if (added) {
        representative[next_classes] = static_cast<uint8_t>(b);
        ++next_classes;
      }
      regex.class_of_[b] = it->second;
    }
    classes = next_classes;
  }
  regex.num_classes_ = classes;

  // Subset construction; DFA state 0 is the empty (dead) set.
  std::map<std::vector<int>, uint32_t> ids;
  std::vector<std::vector<int>> subsets = {{}};
  ids[{}] = kDead;
  auto id_of = [&](std::vector<int> subset) -> Result<uint32_t> {
    auto it = ids.find(subset);
    if (it != ids.end()) return it->second;
    if (subsets.size() >= kMaxStates) {
      return Status::InvalidArgument(
          "regex construct not supported: pattern needs more than " +
          std::to_string(kMaxStates) + " DFA states");
    }
    const uint32_t id = static_cast<uint32_t>(subsets.size());
    ids.emplace(subset, id);
    subsets.push_back(std::move(subset));
    return id;
  };
  ICEWAFL_ASSIGN_OR_RETURN(regex.start_, id_of(Closure(states, {start})));
  for (size_t d = 0; d < subsets.size(); ++d) {
    for (uint32_t k = 0; k < classes; ++k) {
      std::vector<int> targets;
      for (int s : subsets[d]) {
        const Nfa::State& state = states[static_cast<size_t>(s)];
        if (state.set >= 0 &&
            nfa.sets()[static_cast<size_t>(state.set)].test(representative[k])) {
          targets.push_back(state.out);
        }
      }
      ICEWAFL_ASSIGN_OR_RETURN(uint32_t to,
                               id_of(Closure(states, std::move(targets))));
      regex.next_.push_back(static_cast<uint16_t>(to));
    }
  }
  regex.accepting_.resize(subsets.size(), 0);
  for (size_t d = 0; d < subsets.size(); ++d) {
    regex.accepting_[d] =
        std::binary_search(subsets[d].begin(), subsets[d].end(), accept);
  }
  return regex;
}

}  // namespace icewafl
