// A minimal C++ lexer for snfslint.
//
// Produces a flat token stream (identifiers, numbers, literals, punctuation)
// with line numbers, plus the side tables the lint rules need:
//
//  * suppressions: `// lint: <rule>-ok` comments, attached to the line they
//    appear on (and to the following line when the comment stands alone);
//  * `// lint: unstable-source` annotations, attached the same way, and any
//    `// lint:` comment that starts with neither kind, for the audit;
//  * preprocessor directives and comments are consumed, not emitted.
//
// The lexer is deliberately not a preprocessor: macros are not expanded and
// string concatenation is not performed. Lint rules operate on the token
// stream of the file as written, which is what a reviewer reads.
#ifndef TOOLS_LINT_LEXER_H_
#define TOOLS_LINT_LEXER_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace lint {

enum class TokKind {
  kIdent,   // identifiers and keywords
  kNumber,  // numeric literals
  kString,  // string and character literals (text excludes quotes)
  kPunct,   // operators and punctuation; multi-char ops merged (see lexer.cc)
};

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

// One `<rule>-ok` word from a `// lint:` comment, kept positionally so the
// suppression-audit rule can verify it still suppresses a live diagnostic.
struct SuppressionNote {
  std::string rule;
  int comment_line = 0;       // line the comment itself is on
  std::vector<int> covered;   // lines the suppression applies to
};

struct LexResult {
  std::vector<Token> tokens;
  // line -> rule ids suppressed on that line via `// lint: <rule>-ok`.
  std::map<int, std::set<std::string>> suppressions;
  // Every suppression word, in file order (audited by suppression-audit).
  std::vector<SuppressionNote> notes;
  // Lines carrying a `// lint: unstable-source` annotation: the function
  // declared on (or directly below) such a line returns a pointer/reference
  // into a container even though the return type does not say so.
  std::set<int> unstable_source_lines;
  // (comment line, first word) of every `// lint:` comment whose first word
  // is neither `<rule>-ok` nor `unstable-source`: a misspelt or retired
  // annotation that would otherwise do nothing. Audited by suppression-audit.
  std::vector<std::pair<int, std::string>> unknown_annotations;
};

// Tokenizes `source`. Never fails: unrecognized bytes are skipped.
LexResult Lex(const std::string& source);

}  // namespace lint

#endif  // TOOLS_LINT_LEXER_H_
