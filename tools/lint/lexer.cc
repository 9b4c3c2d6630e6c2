#include "tools/lint/lexer.h"

#include <cctype>
#include <cstddef>

namespace lint {
namespace {

// Multi-character punctuation we merge into single tokens. `<<` and `>>` are
// intentionally absent: the rules match template argument lists with a
// balanced <...> scan, and splitting shifts into two tokens keeps that scan
// simple (a stray `<` outside a scan is harmless).
bool IsMergedPunct(char a, char b) {
  switch (a) {
    case ':': return b == ':';
    case '-': return b == '>' || b == '-' || b == '=';
    case '&': return b == '&' || b == '=';
    case '|': return b == '|' || b == '=';
    case '+': return b == '+' || b == '=';
    case '=': return b == '=';
    case '!': return b == '=';
    case '<': return b == '=';
    case '>': return b == '=';
    case '*': return b == '=';
    case '/': return b == '=';
    case '^': return b == '=';
    case '%': return b == '=';
    default: return false;
  }
}

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Records the annotations in a `// lint:` comment body. The first word must
// be `<rule>-ok` or `unstable-source`; more `<rule>-ok` words may follow, and
// the first other word after that starts free reason text. Any other first
// word is recorded as unknown so the audit reports it. The comment covers its
// own line; when it is the only thing on its line it also covers the next
// line, so a rule can be waived with a standalone comment above a long
// statement.
void RecordSuppressions(const std::string& comment, int line, bool standalone,
                        LexResult& out) {
  size_t pos = comment.find("lint:");
  if (pos == std::string::npos) {
    return;
  }
  pos += 5;
  for (bool first = true; pos < comment.size(); first = false) {
    while (pos < comment.size() && std::isspace(static_cast<unsigned char>(comment[pos]))) {
      ++pos;
    }
    size_t start = pos;
    while (pos < comment.size() && !std::isspace(static_cast<unsigned char>(comment[pos]))) {
      ++pos;
    }
    std::string word = comment.substr(start, pos - start);
    if (word.size() > 3 && word.rfind("-ok") == word.size() - 3) {
      std::string rule = word.substr(0, word.size() - 3);
      out.suppressions[line].insert(rule);
      SuppressionNote note;
      note.rule = rule;
      note.comment_line = line;
      note.covered.push_back(line);
      if (standalone) {
        out.suppressions[line + 1].insert(rule);
        note.covered.push_back(line + 1);
      }
      out.notes.push_back(std::move(note));
    } else if (word == "unstable-source") {
      out.unstable_source_lines.insert(line);
      if (standalone) {
        out.unstable_source_lines.insert(line + 1);
      }
    } else {
      if (first && !word.empty()) {
        out.unknown_annotations.emplace_back(line, word);
      }
      break;  // reason text (or an unknown annotation) ends the list
    }
  }
}

}  // namespace

LexResult Lex(const std::string& source) {
  LexResult out;
  size_t i = 0;
  const size_t n = source.size();
  int line = 1;
  bool code_on_line = false;  // any token emitted on the current line?

  auto advance_newline = [&] {
    ++line;
    code_on_line = false;
  };

  while (i < n) {
    char c = source[i];
    if (c == '\n') {
      advance_newline();
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: consume to end of line (honoring \-splices).
    if (c == '#' && !code_on_line) {
      while (i < n && source[i] != '\n') {
        if (source[i] == '\\' && i + 1 < n && source[i + 1] == '\n') {
          i += 2;
          advance_newline();
          continue;
        }
        ++i;
      }
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      size_t start = i + 2;
      while (i < n && source[i] != '\n') {
        ++i;
      }
      RecordSuppressions(source.substr(start, i - start), line, !code_on_line, out);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      int comment_line = line;
      bool standalone = !code_on_line;
      size_t start = i + 2;
      i += 2;
      while (i + 1 < n && !(source[i] == '*' && source[i + 1] == '/')) {
        if (source[i] == '\n') {
          advance_newline();
        }
        ++i;
      }
      size_t end = (i + 1 < n) ? i : n;
      RecordSuppressions(source.substr(start, end - start), comment_line, standalone, out);
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && source[i + 1] == '"') {
      size_t d = i + 2;
      std::string delim;
      while (d < n && source[d] != '(') {
        delim += source[d++];
      }
      std::string closer = ")" + delim + "\"";
      size_t close = source.find(closer, d);
      size_t end = (close == std::string::npos) ? n : close + closer.size();
      out.tokens.push_back({TokKind::kString, source.substr(i, end - i), line});
      for (size_t j = i; j < end; ++j) {
        if (source[j] == '\n') {
          ++line;
        }
      }
      code_on_line = true;
      i = end;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      char quote = c;
      size_t start = ++i;
      while (i < n && source[i] != quote) {
        if (source[i] == '\\' && i + 1 < n) {
          ++i;
        }
        if (source[i] == '\n') {
          break;  // unterminated on this line; bail
        }
        ++i;
      }
      out.tokens.push_back({TokKind::kString, source.substr(start, i - start), line});
      code_on_line = true;
      if (i < n && source[i] == quote) {
        ++i;
      }
      continue;
    }
    // Identifier.
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(source[i])) {
        ++i;
      }
      out.tokens.push_back({TokKind::kIdent, source.substr(start, i - start), line});
      code_on_line = true;
      continue;
    }
    // Number (good enough: leading digit, then ident chars, dots, quotes).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < n && (IsIdentChar(source[i]) || source[i] == '.' || source[i] == '\'')) {
        ++i;
      }
      out.tokens.push_back({TokKind::kNumber, source.substr(start, i - start), line});
      code_on_line = true;
      continue;
    }
    // Punctuation.
    std::string text(1, c);
    if (i + 1 < n && IsMergedPunct(c, source[i + 1])) {
      text += source[i + 1];
      ++i;
    }
    out.tokens.push_back({TokKind::kPunct, text, line});
    code_on_line = true;
    ++i;
  }
  return out;
}

}  // namespace lint
