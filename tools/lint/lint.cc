#include "tools/lint/lint.h"

#include <algorithm>
#include <cstddef>

namespace lint {
namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);
// Guards against runaway scans when a `<` is really a comparison.
constexpr size_t kScanBudget = 4000;

bool IsIdent(const std::vector<Token>& t, size_t i, const char* text = nullptr) {
  return i < t.size() && t[i].kind == TokKind::kIdent && (text == nullptr || t[i].text == text);
}

bool IsPunct(const std::vector<Token>& t, size_t i, const char* text) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == text;
}

// tokens[i] must be `<`; returns the index just past the matching `>`, or
// kNpos when the scan runs into statement punctuation (so `<` was a
// comparison, not a template argument list).
size_t MatchTemplate(const std::vector<Token>& t, size_t i) {
  int depth = 0;
  size_t budget = kScanBudget;
  for (; i < t.size() && budget > 0; ++i, --budget) {
    if (t[i].kind != TokKind::kPunct) {
      continue;
    }
    const std::string& p = t[i].text;
    if (p == "<") {
      ++depth;
    } else if (p == ">") {
      if (--depth == 0) {
        return i + 1;
      }
    } else if (p == ";" || p == "{" || p == "}") {
      return kNpos;
    }
  }
  return kNpos;
}

// tokens[i] must be `(`; returns the index just past the matching `)`.
size_t MatchParens(const std::vector<Token>& t, size_t i) {
  int depth = 0;
  size_t budget = kScanBudget;
  for (; i < t.size() && budget > 0; ++i, --budget) {
    if (t[i].kind != TokKind::kPunct) {
      continue;
    }
    const std::string& p = t[i].text;
    if (p == "(") {
      ++depth;
    } else if (p == ")") {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return kNpos;
}

// tokens[i] must be `{`; returns the index just past the matching `}`.
size_t MatchBraces(const std::vector<Token>& t, size_t i) {
  int depth = 0;
  size_t budget = kScanBudget * 16;
  for (; i < t.size() && budget > 0; ++i, --budget) {
    if (t[i].kind != TokKind::kPunct) {
      continue;
    }
    const std::string& p = t[i].text;
    if (p == "{") {
      ++depth;
    } else if (p == "}") {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return kNpos;
}

// Parses `ident (:: ident)*` starting at i. On success sets `last` to the
// final identifier and returns the index just past the chain; else kNpos.
size_t ParseScopedName(const std::vector<Token>& t, size_t i, std::string& last) {
  if (!IsIdent(t, i)) {
    return kNpos;
  }
  last = t[i].text;
  ++i;
  while (IsPunct(t, i, "::") && IsIdent(t, i + 1)) {
    last = t[i + 1].text;
    i += 2;
  }
  return i;
}

// Parses a call chain `ident ((:: | . | ->) ident)*` starting at i.
size_t ParseCallChain(const std::vector<Token>& t, size_t i, std::string& last) {
  if (!IsIdent(t, i)) {
    return kNpos;
  }
  last = t[i].text;
  ++i;
  while (i + 1 < t.size() && t[i].kind == TokKind::kPunct &&
         (t[i].text == "::" || t[i].text == "." || t[i].text == "->") && IsIdent(t, i + 1)) {
    last = t[i + 1].text;
    i += 2;
  }
  return i;
}

// Joins tokens [begin, end) into a readable snippet for messages.
std::string Snippet(const std::vector<Token>& t, size_t begin, size_t end) {
  std::string s;
  for (size_t i = begin; i < end && i < t.size(); ++i) {
    if (!s.empty() && (t[i].kind == TokKind::kIdent || t[i].kind == TokKind::kNumber) &&
        s.back() != ':' && s.back() != '<' && s.back() != '(' && s.back() != '&' &&
        s.back() != '*') {
      s += ' ';
    }
    s += t[i].text;
    if (s.size() > 60) {
      s += "...";
      break;
    }
  }
  return s;
}

// Keywords that begin statements we never treat as droppable calls.
bool IsStatementKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "return", "co_return", "co_yield", "throw",  "delete",   "new",     "goto",
      "break",  "continue",  "using",    "typedef", "template", "public",  "private",
      "protected", "case",   "default",  "static_assert", "namespace", "struct", "class",
      "enum",   "friend",    "operator", "sizeof", "static", "constexpr", "const",
      "virtual", "inline",   "explicit", "typename", "else", "do", "try", "catch"};
  return kKeywords.count(s) > 0;
}

}  // namespace

const std::vector<std::string>& Linter::KnownRules() {
  static const std::vector<std::string> kRules = {
      "await-cached-size", "await-stale-ref",   "coro-lambda",
      "coro-ref",          "nondet",            "ordered",
      "suppression-audit", "suspend-escape",    "unused-status"};
  return kRules;
}

bool Linter::InOrderSensitiveDir(const std::string& path) {
  static const char* kDirs[] = {"src/sim/",  "src/net/",   "src/rpc/",  "src/nfs/",
                                "src/snfs/", "src/nqnfs/", "src/cache/"};
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  for (const char* dir : kDirs) {
    if (p.rfind(dir, 0) == 0 || p.find(std::string("/") + dir) != std::string::npos) {
      return true;
    }
  }
  return false;
}

void Linter::AddFile(const std::string& path, const std::string& source) {
  FileState fs;
  fs.path = path;
  fs.lex = Lex(source);
  CollectDecls(fs);
  files_.push_back(std::move(fs));
}

void Linter::CollectDecls(FileState& fs) {
  const std::vector<Token>& t = fs.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) {
      continue;
    }
    const std::string& id = t[i].text;
    if (id == "Task" && IsPunct(t, i + 1, "<")) {
      size_t after = MatchTemplate(t, i + 1);
      if (after == kNpos) {
        continue;
      }
      // Is the task payload Status/Result-like?
      bool status_payload = false;
      for (size_t j = i + 2; j + 1 < after; ++j) {
        if (IsIdent(t, j, "Status") || IsIdent(t, j, "Result")) {
          status_payload = true;
          break;
        }
      }
      if (IsPunct(t, after, "&") || IsPunct(t, after, "&&") || IsPunct(t, after, "*")) {
        continue;  // returns a reference/pointer to a task; not a coroutine
      }
      std::string name;
      size_t k = ParseScopedName(t, after, name);
      if (k != kNpos && IsPunct(t, k, "(")) {
        fs.decls.task_fns[name] |=
            status_payload ? FileDecls::kStatusPayload : FileDecls::kOtherPayload;
      }
    } else if (id == "Status" && !IsPunct(t, i + 1, "<")) {
      std::string name;
      size_t k = ParseScopedName(t, i + 1, name);
      if (k != kNpos && IsPunct(t, k, "(")) {
        fs.decls.other_fns.insert(name);
      }
    } else if (id == "Result" && IsPunct(t, i + 1, "<")) {
      size_t after = MatchTemplate(t, i + 1);
      if (after == kNpos) {
        continue;
      }
      std::string name;
      size_t k = ParseScopedName(t, after, name);
      if (k != kNpos && IsPunct(t, k, "(")) {
        fs.decls.other_fns.insert(name);
        // `Result<T*>`: the payload is a raw pointer into some container —
        // an unstable source for the flow rules (`after - 1` is the closing
        // `>`, so `after - 2` is the last payload token).
        if (after >= 2 && IsPunct(t, after - 2, "*")) {
          fs.decls.unstable_fns.insert(name);
        }
      }
    } else if (id == "unordered_map" || id == "unordered_set") {
      if (!IsPunct(t, i + 1, "<")) {
        continue;
      }
      size_t after = MatchTemplate(t, i + 1);
      if (after == kNpos) {
        continue;
      }
      while (IsPunct(t, after, "&") || IsPunct(t, after, "*")) {
        ++after;
      }
      if (IsIdent(t, after)) {
        fs.decls.unordered_vars.insert(t[after].text);
      }
    } else if (IsIdent(t, i + 1) && IsPunct(t, i + 2, "(")) {
      // `SomeType name(`: a declaration with a non-Task return type — unless
      // `id` is really a keyword and this is a call like `return time(...)`.
      static const std::set<std::string> kCallContexts = {
          "return", "co_return", "co_await", "co_yield", "else",
          "do",     "case",      "new",      "throw",    "goto"};
      if (id != "Status" && id != "Result" && id != "Task" && kCallContexts.count(id) == 0) {
        fs.decls.other_fns.insert(t[i + 1].text);
      }
    }
  }

  // Unstable-source inference for the flow rules: `Type* Name(` declarations
  // (raw-pointer returns) and functions annotated `// lint: unstable-source`
  // (reference-returners the type system cannot reveal).
  for (size_t i = 0; i < t.size(); ++i) {
    if (IsIdent(t, i) && IsPunct(t, i + 1, "(") &&
        fs.lex.unstable_source_lines.count(t[i].line) > 0) {
      fs.decls.unstable_fns.insert(t[i].text);
    }
    if (!IsPunct(t, i, "*")) {
      continue;
    }
    size_t star_end = i;
    while (IsPunct(t, star_end + 1, "*")) {
      ++star_end;
    }
    std::string name;
    size_t k = ParseScopedName(t, star_end + 1, name);
    if (k == kNpos || !IsPunct(t, k, "(")) {
      continue;
    }
    // Walk back over the return type's scoped-name chain to its head...
    if (i == 0 || !IsIdent(t, i - 1)) {
      continue;
    }
    size_t head = i - 1;
    while (head >= 2 && IsPunct(t, head - 1, "::") && IsIdent(t, head - 2)) {
      head -= 2;
    }
    if (IsStatementKeyword(t[head].text)) {
      continue;
    }
    // ...which must sit at a declaration boundary, so `x = a * b(c)` and
    // `return a * b(c)` (multiplications) are not mistaken for declarations.
    bool at_decl_boundary = head == 0;
    if (!at_decl_boundary) {
      const Token& g = t[head - 1];
      if (g.kind == TokKind::kPunct) {
        at_decl_boundary = g.text == ";" || g.text == "{" || g.text == "}" || g.text == ":";
      } else if (g.kind == TokKind::kIdent) {
        static const std::set<std::string> kDeclPrefix = {
            "const", "static", "inline", "constexpr", "virtual", "friend",
            "explicit", "typename", "mutable"};
        at_decl_boundary = kDeclPrefix.count(g.text) > 0;
      }
    }
    if (at_decl_boundary) {
      fs.decls.unstable_fns.insert(name);
    }
  }
}

std::vector<Diagnostic> Linter::Run() {
  task_fns_.clear();
  other_fns_.clear();
  unstable_fns_.clear();
  used_.clear();
  for (const FileState& fs : files_) {
    for (const auto& [name, payload] : fs.decls.task_fns) {
      task_fns_[name] |= payload;
    }
    other_fns_.insert(fs.decls.other_fns.begin(), fs.decls.other_fns.end());
    unstable_fns_.insert(fs.decls.unstable_fns.begin(), fs.decls.unstable_fns.end());
  }
  // Repo-wide call graph + transitive may-suspend fixpoint; the flow rules
  // consult it to treat calls to may-suspend functions as suspension points.
  callgraph_ = CallGraph();
  for (const FileState& fs : files_) {
    callgraph_.AddFile(fs.lex);
  }
  callgraph_.Finalize();

  std::vector<Diagnostic> out;
  for (const FileState& fs : files_) {
    LintFile(fs, out);
  }
  // The audit needs every rule's suppression hits, so it runs after all
  // files have been linted.
  for (const FileState& fs : files_) {
    CheckSuppressions(fs, out);
  }
  std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

bool Linter::Suppressed(const FileState& fs, int line, const std::string& rule) {
  auto it = fs.lex.suppressions.find(line);
  if (it == fs.lex.suppressions.end() || it->second.count(rule) == 0) {
    return false;
  }
  used_.insert({fs.path, line, rule});
  return true;
}

void Linter::Emit(const FileState& fs, int line, const std::string& rule, std::string message,
                  std::vector<Diagnostic>& out) {
  if (Suppressed(fs, line, rule)) {
    return;
  }
  out.push_back(Diagnostic{fs.path, line, rule, std::move(message)});
}

// --- rule: suppression-audit -------------------------------------------------

void Linter::CheckSuppressions(const FileState& fs, std::vector<Diagnostic>& out) {
  const std::vector<std::string>& known = KnownRules();
  for (const SuppressionNote& note : fs.lex.notes) {
    // Auditing audit suppressions would make `suppression-audit-ok`
    // self-justifying; leave them alone.
    if (note.rule == "suppression-audit") {
      continue;
    }
    if (std::find(known.begin(), known.end(), note.rule) == known.end()) {
      Emit(fs, note.comment_line, "suppression-audit",
           "`// lint: " + note.rule + "-ok` names an unknown rule id; fix the spelling or "
           "remove the comment",
           out);
      continue;
    }
    bool hit = false;
    for (int line : note.covered) {
      if (used_.count({fs.path, line, note.rule}) > 0) {
        hit = true;
        break;
      }
    }
    if (!hit) {
      Emit(fs, note.comment_line, "suppression-audit",
           "`// lint: " + note.rule + "-ok` no longer suppresses any diagnostic; the code was "
           "fixed or the suppression is misplaced — remove it",
           out);
    }
  }
  for (const auto& [line, word] : fs.lex.unknown_annotations) {
    Emit(fs, line, "suppression-audit",
         "`// lint: " + word + "` is not an annotation (expected `<rule>-ok` or "
         "`unstable-source`); fix the spelling or remove the comment",
         out);
  }
}

void Linter::LintFile(const FileState& fs, std::vector<Diagnostic>& out) {
  CheckCoroParams(fs, out);
  CheckCoroLambdas(fs, out);
  CheckNondet(fs, out);
  if (InOrderSensitiveDir(fs.path)) {
    // Effective unordered-variable set: this file plus its paired .h/.cc.
    std::set<std::string> unordered = fs.decls.unordered_vars;
    std::string stem = fs.path;
    size_t dot = stem.rfind('.');
    if (dot != std::string::npos) {
      stem.resize(dot);
    }
    for (const FileState& other : files_) {
      std::string ostem = other.path;
      size_t odot = ostem.rfind('.');
      if (odot != std::string::npos) {
        ostem.resize(odot);
      }
      if (ostem == stem) {
        unordered.insert(other.decls.unordered_vars.begin(), other.decls.unordered_vars.end());
      }
    }
    CheckOrderedIteration(fs, unordered, out);
  }
  CheckStatements(fs, out);
  CheckFlow(fs, out);
}

// --- rule: coro-ref ----------------------------------------------------------

void Linter::CheckCoroParams(const FileState& fs, std::vector<Diagnostic>& out) {
  const std::vector<Token>& t = fs.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i, "Task") || !IsPunct(t, i + 1, "<")) {
      continue;
    }
    size_t after = MatchTemplate(t, i + 1);
    if (after == kNpos) {
      continue;
    }
    if (IsPunct(t, after, "&") || IsPunct(t, after, "&&") || IsPunct(t, after, "*")) {
      continue;  // reference/pointer to Task, not a coroutine declaration
    }
    size_t lparen = kNpos;
    std::string name;
    if (IsPunct(t, after, "(")) {
      lparen = after;  // function type, e.g. inside std::function<Task<..>(..)>
      name = "<function type>";
    } else {
      size_t k = ParseScopedName(t, after, name);
      if (k == kNpos || !IsPunct(t, k, "(")) {
        continue;
      }
      lparen = k;
    }
    size_t rparen = MatchParens(t, lparen);
    if (rparen == kNpos) {
      continue;
    }
    // Split the parameter list on top-level commas.
    size_t param_begin = lparen + 1;
    int angle = 0, paren = 0, brace = 0;
    for (size_t j = lparen + 1; j < rparen; ++j) {
      bool at_end = (j == rparen - 1);
      bool at_comma = false;
      if (t[j].kind == TokKind::kPunct) {
        const std::string& p = t[j].text;
        if (p == "<") ++angle;
        else if (p == ">") --angle;
        else if (p == "(") ++paren;
        else if (p == ")") --paren;
        else if (p == "{") ++brace;
        else if (p == "}") --brace;
        else if (p == "," && angle == 0 && paren == 0 && brace == 0) at_comma = true;
      }
      if (!at_comma && !at_end) {
        continue;
      }
      size_t param_end = at_comma ? j : rparen - 1;
      bool has_const = false, has_ref = false, has_rvref = false, has_view = false;
      for (size_t p = param_begin; p < param_end; ++p) {
        if (t[p].kind == TokKind::kIdent) {
          if (t[p].text == "const") has_const = true;
          if (t[p].text == "string_view" || t[p].text == "span") has_view = true;
        } else if (t[p].kind == TokKind::kPunct) {
          if (t[p].text == "&") has_ref = true;
          if (t[p].text == "&&") has_rvref = true;
        }
      }
      const char* why = nullptr;
      if (has_view) {
        why = "string_view/span parameter";
      } else if (has_const && has_ref) {
        why = "const reference parameter";
      } else if (has_rvref) {
        why = "rvalue reference parameter";
      }
      if (why != nullptr && param_end > param_begin) {
        int line = t[param_begin].line;
        Emit(fs, line, "coro-ref",
             "coroutine " + name + " takes " + why + " `" +
                 Snippet(t, param_begin, param_end) +
                 "`; the frame may outlive the referent across co_await (pass by value)",
             out);
      }
      param_begin = j + 1;
    }
    i = rparen - 1;
  }
}

// --- rule: coro-lambda -------------------------------------------------------

void Linter::CheckCoroLambdas(const FileState& fs, std::vector<Diagnostic>& out) {
  const std::vector<Token>& t = fs.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsPunct(t, i, "[")) {
      continue;
    }
    // Attribute [[...]] or subscript `expr[...]`.
    if (IsPunct(t, i + 1, "[")) {
      continue;
    }
    if (i > 0 && (t[i - 1].kind == TokKind::kIdent || t[i - 1].kind == TokKind::kNumber ||
                  IsPunct(t, i - 1, ")") || IsPunct(t, i - 1, "]"))) {
      continue;  // subscript
    }
    // Scan the capture list for a reference capture.
    size_t close = kNpos;
    bool ref_capture = false;
    for (size_t j = i + 1; j < t.size() && j < i + 40; ++j) {
      if (IsPunct(t, j, "]")) {
        close = j;
        break;
      }
      if (IsPunct(t, j, "&")) {
        ref_capture = true;
      }
      if (IsPunct(t, j, ";") || IsPunct(t, j, "{")) {
        break;  // not a capture list
      }
    }
    if (close == kNpos || !ref_capture) {
      continue;
    }
    // Find the body: optional (params), optional -> type, then {.
    size_t j = close + 1;
    if (IsPunct(t, j, "(")) {
      j = MatchParens(t, j);
      if (j == kNpos) {
        continue;
      }
    }
    size_t lbrace = kNpos;
    for (size_t k = j; k < t.size() && k < j + 40; ++k) {
      if (IsPunct(t, k, "{")) {
        lbrace = k;
        break;
      }
      if (IsPunct(t, k, ";") || IsPunct(t, k, ")") || IsPunct(t, k, ",")) {
        break;
      }
    }
    if (lbrace == kNpos) {
      continue;
    }
    size_t rbrace = MatchBraces(t, lbrace);
    if (rbrace == kNpos) {
      continue;
    }
    for (size_t k = lbrace + 1; k + 1 < rbrace; ++k) {
      if (t[k].kind == TokKind::kIdent &&
          (t[k].text == "co_await" || t[k].text == "co_return" || t[k].text == "co_yield")) {
        Emit(fs, t[i].line, "coro-lambda",
             "reference-capturing lambda is a coroutine; captures live in the frame and can "
             "dangle (capture by value or pass state as parameters)",
             out);
        break;
      }
    }
  }
}

// --- rule: nondet ------------------------------------------------------------

void Linter::CheckNondet(const FileState& fs, std::vector<Diagnostic>& out) {
  const std::vector<Token>& t = fs.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) {
      continue;
    }
    const std::string& id = t[i].text;
    bool member = i > 0 && (IsPunct(t, i - 1, ".") || IsPunct(t, i - 1, "->"));
    bool foreign_scope = false;  // qualified by something other than std
    if (i > 1 && IsPunct(t, i - 1, "::") && IsIdent(t, i - 2) && t[i - 2].text != "std" &&
        t[i - 2].text != "chrono") {
      foreign_scope = true;
    }
    if (member || foreign_scope) {
      continue;
    }
    // A type name directly before `name(` makes this a declaration of an
    // unrelated function that merely shares the banned name.
    bool declaration = false;
    if (i > 0 && t[i - 1].kind == TokKind::kIdent) {
      const std::string& prev = t[i - 1].text;
      declaration = prev != "return" && prev != "co_return" && prev != "co_await" &&
                    prev != "co_yield" && prev != "else" && prev != "do" && prev != "case";
    }
    if ((id == "rand" || id == "srand" || id == "time") && IsPunct(t, i + 1, "(") &&
        !declaration) {
      Emit(fs, t[i].line, "nondet",
           "`" + id + "()` is nondeterministic; derive all randomness/time from sim::Rng / "
           "Simulator::Now()",
           out);
    } else if (id == "random_device" || id == "system_clock") {
      Emit(fs, t[i].line, "nondet",
           "`std::" + id + "` is nondeterministic; derive all randomness/time from sim::Rng / "
           "Simulator::Now()",
           out);
    }
  }
}

// --- rule: ordered -----------------------------------------------------------

void Linter::CheckOrderedIteration(const FileState& fs, const std::set<std::string>& unordered,
                                   std::vector<Diagnostic>& out) {
  const std::vector<Token>& t = fs.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i, "for") || !IsPunct(t, i + 1, "(")) {
      continue;
    }
    size_t rparen = MatchParens(t, i + 1);
    if (rparen == kNpos) {
      continue;
    }
    // Find the range-for colon at parenthesis depth 1.
    size_t colon = kNpos;
    int depth = 0;
    for (size_t j = i + 1; j < rparen; ++j) {
      if (t[j].kind != TokKind::kPunct) {
        continue;
      }
      if (t[j].text == "(") ++depth;
      else if (t[j].text == ")") --depth;
      else if (t[j].text == ":" && depth == 1) {
        colon = j;
        break;
      } else if (t[j].text == ";") {
        break;  // classic for loop
      }
    }
    if (colon == kNpos) {
      continue;
    }
    size_t expr_begin = colon + 1;
    size_t expr_end = rparen - 1;  // token index of the closing `)`
    if (expr_begin >= expr_end) {
      continue;
    }
    bool hazard = false;
    // Direct mention of an unordered container type in the range expression.
    for (size_t j = expr_begin; j < expr_end; ++j) {
      if (IsIdent(t, j, "unordered_map") || IsIdent(t, j, "unordered_set")) {
        hazard = true;
      }
    }
    // A plain variable / member chain ending in a known unordered variable.
    if (!hazard && t[expr_end - 1].kind == TokKind::kIdent &&
        unordered.count(t[expr_end - 1].text) > 0) {
      hazard = true;
    }
    if (hazard) {
      Emit(fs, t[i].line, "ordered",
           "range-for over unordered container `" + Snippet(t, expr_begin, expr_end) +
               "`: hash order can change simulated event ordering (iterate a sorted snapshot, "
               "use an ordered container, or annotate `// lint: ordered-ok` if order is "
               "provably immaterial)",
           out);
    }
  }
}

// --- rule: unused-status -----------------------------------------------------

void Linter::CheckStatements(const FileState& fs, std::vector<Diagnostic>& out) {
  const std::vector<Token>& t = fs.lex.tokens;
  bool at_stmt_start = true;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == TokKind::kPunct &&
        (t[i].text == ";" || t[i].text == "{" || t[i].text == "}")) {
      at_stmt_start = true;
      continue;
    }
    if (!at_stmt_start) {
      continue;
    }
    at_stmt_start = false;
    // `if (...)` / `while (...)` / `for (...)` / `switch (...)`: the
    // controlled statement starts after the condition.
    if (t[i].kind == TokKind::kIdent &&
        (t[i].text == "if" || t[i].text == "while" || t[i].text == "for" ||
         t[i].text == "switch")) {
      if (IsPunct(t, i + 1, "(")) {
        size_t close = MatchParens(t, i + 1);
        if (close != kNpos) {
          i = close - 1;
          at_stmt_start = true;
        }
      }
      continue;
    }
    // Only a bare `co_await Callee(...);` can drop a payload unseen; a
    // `(void)` cast starts with `(` and is skipped here.
    if (!IsIdent(t, i, "co_await")) {
      continue;
    }
    size_t j = i + 1;
    std::string callee;
    size_t k = ParseCallChain(t, j, callee);
    if (k == kNpos || !IsPunct(t, k, "(")) {
      continue;
    }
    size_t close = MatchParens(t, k);
    if (close == kNpos || !IsPunct(t, close, ";")) {
      continue;  // not a bare call statement
    }
    // A name also declared with a non-Task return type, or as a Task with
    // another payload, is ambiguous; the textual matcher cannot resolve
    // overloads, so it stays quiet.
    auto task_it = task_fns_.find(callee);
    if (task_it != task_fns_.end() && task_it->second == FileDecls::kStatusPayload &&
        other_fns_.count(callee) == 0) {
      Emit(fs, t[j].line, "unused-status",
           "Status/Result from `co_await " + callee +
               "(...)` is dropped; handle it or cast to (void)",
           out);
    }
  }
}

}  // namespace lint
