// fcrlint's C++ token lexer.
//
// The v1 engine scanned line-masked text with regex-ish string searches; it
// could not see token boundaries, directive structure, or comment extents
// reliably (multi-line block comments and raw strings were the known blind
// spots). This lexer produces a real token stream so every rule in
// fcrlint_rules.hpp matches on token structure instead of substrings.
//
// Scope: a single-file lexical pass, deliberately simpler than a full
// translation phase 1-3 implementation but faithful where the rules need it:
//
//   * line (//) and block (/* */) comments are single tokens carrying their
//     full text, so allow annotations inside them parse with exact line
//     numbers; a line comment continued by a backslash splice stays one
//     comment token (a real-world gotcha the old line scanner missed);
//   * string / character literals, including encoding prefixes (u8, u, U, L)
//     and raw strings R"delim(...)delim", are opaque single tokens: banned
//     identifiers inside them can never match;
//   * after `#include` (or `#include_next`) the <...> / "..." operand is
//     lexed as one kHeaderName token, mirroring the standard's header-name
//     production, so include rules read paths directly;
//   * a `#` that starts a preprocessor directive is marked (Token::directive)
//     by checking it is the first significant token on its logical line;
//   * backslash-newline splices are treated as whitespace between tokens and
//     as continuations inside line comments and string literals; lines are
//     counted so every token knows its 1-based source line;
//   * punctuation uses maximal munch over the C++ operator set, so `+=`,
//     `::`, `&&`, `->` arrive as single tokens.
//
// The lexer never fails: ill-formed input (unterminated literals or
// comments) degrades to a best-effort token stream, which is the right
// behaviour for a linter that must keep scanning the rest of the file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fcrlint {

enum class TokKind : std::uint8_t {
  kIdent,        ///< identifier or keyword
  kNumber,       ///< pp-number (integer / floating literal, any base)
  kPunct,        ///< operator or punctuator, maximal munch
  kString,       ///< "..." literal, encoding prefix included in text
  kChar,         ///< '...' literal, encoding prefix included in text
  kRawString,    ///< R"delim(...)delim" literal, prefix included
  kLineComment,  ///< // ... (including splice continuations)
  kBlockComment, ///< /* ... */
  kHeaderName,   ///< <...> or "..." operand of #include, delimiters included
};

struct Token {
  TokKind kind = TokKind::kPunct;
  int line = 1;             ///< 1-based line of the token's first character
  std::size_t begin = 0;    ///< byte offset into the source
  bool directive = false;   ///< true for a '#' that starts a directive
  bool pp = false;          ///< true for any token on a preprocessor line
  std::string text;         ///< exact source slice

  bool is(TokKind k, std::string_view t) const { return kind == k && text == t; }
  bool ident(std::string_view t) const { return is(TokKind::kIdent, t); }
  bool punct(std::string_view t) const { return is(TokKind::kPunct, t); }
  bool comment() const {
    return kind == TokKind::kLineComment || kind == TokKind::kBlockComment;
  }
};

namespace lexdetail {

inline bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
inline bool digit(char c) { return c >= '0' && c <= '9'; }
inline bool ident_char(char c) { return ident_start(c) || digit(c); }

/// True when the prefix of a just-lexed identifier plus a following quote
/// forms a raw-string opener (R"..., u8R"..., uR"..., UR"..., LR"...).
inline bool raw_prefix(std::string_view id) {
  return id == "R" || id == "u8R" || id == "uR" || id == "UR" || id == "LR";
}
/// Encoding prefixes that may precede a plain string or char literal.
inline bool encoding_prefix(std::string_view id) {
  return id == "u8" || id == "u" || id == "U" || id == "L";
}

/// Multi-character punctuators, longest first within each first-char group;
/// maximal munch tries 3-char then 2-char matches before the single char.
/// Length of the punctuator that starts `rest` by maximal munch over the
/// three-character punctuators <<= >>= ... ->* and the two-character ones
/// :: -> << >> <= >= == != && || += -= *= /= %= &= |= ^= ++ -- ##, or 1
/// for any other character. One switch on the first character picks the
/// candidates.
inline std::size_t punct_length(std::string_view rest) {
  const char a = rest[0];
  const char b = rest.size() > 1 ? rest[1] : '\0';
  const char c = rest.size() > 2 ? rest[2] : '\0';
  switch (a) {
    case '<':
    case '>':
      if (b == a) return c == '=' ? 3 : 2;
      return b == '=' ? 2 : 1;
    case '.':
      return b == '.' && c == '.' ? 3 : 1;
    case '-':
      if (b == '>') return c == '*' ? 3 : 2;
      return b == '-' || b == '=' ? 2 : 1;
    case ':':
    case '#':
      return b == a ? 2 : 1;
    case '&':
    case '|':
    case '+':
      return b == a || b == '=' ? 2 : 1;
    case '=':
    case '!':
    case '*':
    case '/':
    case '%':
    case '^':
      return b == '=' ? 2 : 1;
    default:
      return 1;
  }
}

}  // namespace lexdetail

/// Lexes `src` into a token vector. Whitespace is dropped; comments are kept
/// as tokens (rules that must ignore them skip non-significant kinds).
inline std::vector<Token> lex(std::string_view src) {
  using namespace lexdetail;
  std::vector<Token> out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  // Line (1-based) of the last significant token, to recognise directive
  // hashes; 0 = no significant token yet on any line.
  int last_sig_line = 0;
  // After `# include` we owe the stream one header-name token.
  bool expect_header = false;
  // Inside a preprocessor directive (from its '#' to the unspliced end of
  // line). Tokens carry this so structural passes (the v3 program model)
  // can skip macro definitions, which are not part of the parsed program.
  bool in_pp = false;

  auto emit = [&](TokKind kind, std::size_t begin, std::size_t end) {
    Token t;
    t.kind = kind;
    t.line = line;
    t.begin = begin;
    t.text.assign(src.substr(begin, end - begin));
    if (kind != TokKind::kLineComment && kind != TokKind::kBlockComment) {
      if (kind == TokKind::kPunct && t.text == "#" && last_sig_line != line) {
        t.directive = true;
        in_pp = true;
      }
      last_sig_line = line;
    }
    t.pp = in_pp;
    // Multi-line tokens (block comments, spliced comments/strings) advance
    // the line counter by the newlines they swallowed.
    for (const char c : t.text) {
      if (c == '\n') ++line;
    }
    out.push_back(std::move(t));
    i = end;
  };

  // Consumes a quoted literal starting at the opening quote `q` (position
  // `from`); handles backslash escapes (including escaped newlines). Stops
  // at an unescaped closing quote or, for tolerance, at an unescaped
  // newline / end of input. Returns one past the last consumed character.
  auto scan_quoted = [&](std::size_t from, char q) {
    std::size_t j = from + 1;
    while (j < n) {
      if (src[j] == '\\' && j + 1 < n) {
        j += 2;
        continue;
      }
      if (src[j] == q) return j + 1;
      if (src[j] == '\n') return j;  // unterminated; do not eat the newline
      ++j;
    }
    return j;
  };

  while (i < n) {
    const char c = src[i];
    const char next = i + 1 < n ? src[i + 1] : '\0';

    // -- whitespace and splices -------------------------------------------
    if (c == '\n') {
      ++line;
      ++i;
      expect_header = false;  // a directive ends with its (unspliced) line
      in_pp = false;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    if (c == '\\' && (next == '\n' || (next == '\r' && i + 2 < n && src[i + 2] == '\n'))) {
      // Backslash-newline splice: whitespace between tokens, but the
      // physical line still advances.
      i += next == '\n' ? 2 : 3;
      ++line;
      continue;
    }

    // -- comments ---------------------------------------------------------
    if (c == '/' && next == '/') {
      std::size_t j = i + 2;
      while (j < n) {
        if (src[j] != '\n') {
          ++j;
          continue;
        }
        // A line comment continues across a backslash splice (ignoring
        // trailing \r): the next physical line is still comment text.
        std::size_t k = j;
        while (k > i + 2 && src[k - 1] == '\r') --k;
        if (k > i + 2 && src[k - 1] == '\\') {
          ++j;
          continue;
        }
        break;
      }
      emit(TokKind::kLineComment, i, j);
      continue;
    }
    if (c == '/' && next == '*') {
      const std::size_t close = src.find("*/", i + 2);
      emit(TokKind::kBlockComment, i,
           close == std::string_view::npos ? n : close + 2);
      continue;
    }

    // -- header-name after #include ---------------------------------------
    if (expect_header && (c == '<' || c == '"')) {
      const char closer = c == '<' ? '>' : '"';
      std::size_t j = i + 1;
      while (j < n && src[j] != closer && src[j] != '\n') ++j;
      expect_header = false;
      emit(TokKind::kHeaderName, i, j < n && src[j] == closer ? j + 1 : j);
      continue;
    }

    // -- string / char literals (no prefix) -------------------------------
    if (c == '"') {
      emit(TokKind::kString, i, scan_quoted(i, '"'));
      continue;
    }
    if (c == '\'') {
      emit(TokKind::kChar, i, scan_quoted(i, '\''));
      continue;
    }

    // -- identifiers, possibly literal prefixes ---------------------------
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(src[j])) ++j;
      const std::string_view id = src.substr(i, j - i);
      if (j < n && src[j] == '"' && raw_prefix(id)) {
        // Raw string: R"delim( ... )delim". Find the opening '(' to learn
        // the delimiter, then search for the exact `)delim"` terminator.
        const std::size_t open = src.find('(', j + 1);
        if (open != std::string_view::npos) {
          const std::string terminator =
              ")" + std::string(src.substr(j + 1, open - j - 1)) + "\"";
          const std::size_t close = src.find(terminator, open + 1);
          emit(TokKind::kRawString, i,
               close == std::string_view::npos ? n : close + terminator.size());
          continue;
        }
        // Ill-formed raw string (no '('): fall through as an identifier.
      }
      if (j < n && src[j] == '"' && encoding_prefix(id)) {
        emit(TokKind::kString, i, scan_quoted(j, '"'));
        continue;
      }
      if (j < n && src[j] == '\'' && encoding_prefix(id)) {
        emit(TokKind::kChar, i, scan_quoted(j, '\''));
        continue;
      }
      emit(TokKind::kIdent, i, j);
      if (expect_header) expect_header = false;
      if (!out.empty() && out.back().kind == TokKind::kIdent &&
          (out.back().text == "include" || out.back().text == "include_next") &&
          out.size() >= 2) {
        // `# include` — the previous significant token must be a directive
        // hash (comments may sit between, e.g. `#/*x*/include <y>`).
        for (std::size_t k = out.size() - 1; k-- > 0;) {
          if (out[k].comment()) continue;
          expect_header = out[k].punct("#") && out[k].directive;
          break;
        }
      }
      continue;
    }

    // -- numbers (pp-number: handles digit separators, exponents) ---------
    if (digit(c) || (c == '.' && digit(next))) {
      std::size_t j = i + 1;
      while (j < n) {
        const char d = src[j];
        if (ident_char(d) || d == '.') {
          ++j;
          continue;
        }
        if (d == '\'' && j + 1 < n && ident_char(src[j + 1])) {
          j += 2;  // digit separator
          continue;
        }
        if ((d == '+' || d == '-') &&
            (src[j - 1] == 'e' || src[j - 1] == 'E' || src[j - 1] == 'p' ||
             src[j - 1] == 'P')) {
          ++j;  // exponent sign
          continue;
        }
        break;
      }
      emit(TokKind::kNumber, i, j);
      continue;
    }

    // -- punctuation: maximal munch ---------------------------------------
    emit(TokKind::kPunct, i, i + punct_length(src.substr(i)));
  }
  return out;
}

/// True for tokens rules should treat as code (not comments).
inline bool significant(const Token& t) { return !t.comment(); }

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

/// Index of the next significant token strictly after `i` (npos if none).
inline std::size_t next_sig(const std::vector<Token>& toks, std::size_t i) {
  for (std::size_t j = i + 1; j < toks.size(); ++j) {
    if (significant(toks[j])) return j;
  }
  return npos;
}

/// Index of the previous significant token strictly before `i` (npos if none).
inline std::size_t prev_sig(const std::vector<Token>& toks, std::size_t i) {
  for (std::size_t j = i; j-- > 0;) {
    if (significant(toks[j])) return j;
  }
  return npos;
}

}  // namespace fcrlint
