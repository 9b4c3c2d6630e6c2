// Symbol table, call graph, and transitive may-suspend fixpoint (see
// callgraph.h for the contract).
#include "tools/lint/callgraph.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

namespace lint {
namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

bool IsIdent(const std::vector<Token>& t, size_t i, const char* text = nullptr) {
  return i < t.size() && t[i].kind == TokKind::kIdent && (text == nullptr || t[i].text == text);
}

bool IsPunct(const std::vector<Token>& t, size_t i, const char* text) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == text;
}

// Keywords that look like call sites (`ident (`) but are not.
bool IsCallKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",     "while",     "for",      "switch",   "catch",  "return", "co_return",
      "co_await", "co_yield", "sizeof",  "alignof",  "typeid", "new",    "delete",
      "throw",  "noexcept",  "decltype", "alignas",  "assert", "static_assert",
      "defined", "operator"};
  return kKeywords.count(s) > 0;
}

// Control keywords that own a `(...)` before a block.
bool IsControlKeyword(const std::string& s) {
  return s == "if" || s == "while" || s == "for" || s == "switch" || s == "catch";
}

// Per-file token geometry: bracket matching, class context, lambda bounds.
struct FileScan {
  const std::vector<Token>& t;
  std::vector<size_t> match;    // opener index -> closer index
  std::vector<size_t> open_of;  // closer index -> opener index
  std::vector<std::string> cls;  // innermost enclosing class name per token

  explicit FileScan(const std::vector<Token>& tokens) : t(tokens) {
    BuildMatchTables();
    BuildClassContext();
  }

  void BuildMatchTables() {
    match.assign(t.size(), kNpos);
    open_of.assign(t.size(), kNpos);
    std::vector<size_t> stack;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kPunct) {
        continue;
      }
      const std::string& p = t[i].text;
      if (p == "(" || p == "{" || p == "[") {
        stack.push_back(i);
      } else if (p == ")" || p == "}" || p == "]") {
        const char* want = p == ")" ? "(" : p == "}" ? "{" : "[";
        while (!stack.empty() && t[stack.back()].text != want) {
          stack.pop_back();
        }
        if (!stack.empty()) {
          match[stack.back()] = i;
          open_of[i] = stack.back();
          stack.pop_back();
        }
      }
    }
  }

  // Marks, for every token, the innermost `class`/`struct`/`union` body it
  // sits in (empty outside class bodies; namespaces are not part of
  // qualified names in this codebase's out-of-line definitions).
  void BuildClassContext() {
    cls.assign(t.size(), std::string());
    // Class-body braces: `class|struct|union NAME ... {` with no `;` before
    // the `{` (which would make it a forward declaration).
    std::vector<std::pair<size_t, std::string>> class_open;  // (brace index, name)
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (!IsIdent(t, i) ||
          (t[i].text != "class" && t[i].text != "struct" && t[i].text != "union")) {
        continue;
      }
      if (i > 0 && IsIdent(t, i - 1, "enum")) {
        continue;  // enum class
      }
      // Name: the last of the consecutive identifiers after the keyword
      // (tolerates an export macro between keyword and name).
      size_t j = i + 1;
      std::string name;
      while (IsIdent(t, j)) {
        name = t[j].text;
        ++j;
      }
      if (name.empty()) {
        continue;  // anonymous struct / lambda-local
      }
      // Find the body brace before any `;` (base lists contain no braces).
      for (size_t k = j; k < t.size() && k < j + 64; ++k) {
        if (IsPunct(t, k, ";") || IsPunct(t, k, ")") || IsPunct(t, k, "=")) {
          break;  // forward declaration / parameter / alias
        }
        if (IsPunct(t, k, "{")) {
          if (match[k] != kNpos) {
            class_open.push_back({k, name});
          }
          break;
        }
      }
    }
    std::vector<std::pair<size_t, std::string>> stack;  // (closer index, name)
    size_t next_open = 0;
    for (size_t i = 0; i < t.size(); ++i) {
      while (!stack.empty() && i > stack.back().first) {
        stack.pop_back();
      }
      if (next_open < class_open.size() && class_open[next_open].first == i) {
        stack.push_back({match[i], class_open[next_open].second});
        ++next_open;
      }
      if (!stack.empty()) {
        cls[i] = stack.back().second;
      }
    }
  }

  // `[` beginning a lambda introducer (not a subscript or attribute).
  bool IsLambdaStart(size_t i) const {
    if (!IsPunct(t, i, "[") || IsPunct(t, i + 1, "[")) {
      return false;
    }
    if (i > 0 && (t[i - 1].kind == TokKind::kIdent || t[i - 1].kind == TokKind::kNumber ||
                  IsPunct(t, i - 1, ")") || IsPunct(t, i - 1, "]"))) {
      return false;
    }
    return true;
  }

  // For a lambda starting at `[` index i, the index just past its body's
  // closing `}` (kNpos when no body is found nearby).
  size_t SkipLambda(size_t i) const {
    size_t close = match[i];
    if (close == kNpos) {
      return kNpos;
    }
    size_t j = close + 1;
    if (IsPunct(t, j, "(")) {
      if (match[j] == kNpos) {
        return kNpos;
      }
      j = match[j] + 1;
    }
    for (size_t k = j; k < t.size() && k < j + 40; ++k) {
      if (IsPunct(t, k, "{")) {
        return match[k] == kNpos ? kNpos : match[k] + 1;
      }
      if (IsPunct(t, k, ";") || IsPunct(t, k, ")") || IsPunct(t, k, ",")) {
        break;
      }
    }
    return kNpos;
  }

  // For a function body opening at `{` index b, the index of the function
  // name's last component, or kNpos when b is not a named function body
  // (control block, lambda, namespace, initializer list, ...). Walks back
  // over cv-qualifiers and trailing return types to the parameter list, then
  // back through constructor member-initializers (`: a_(x), b_{y}`) to the
  // real signature.
  size_t SignatureName(size_t b) const {
    size_t j = b;
    while (j > 0) {
      --j;
      const Token& tok = t[j];
      if (tok.kind == TokKind::kIdent) {
        continue;  // qualifier or trailing-return-type component
      }
      if (tok.kind == TokKind::kPunct &&
          (tok.text == "::" || tok.text == "<" || tok.text == ">" || tok.text == "*" ||
           tok.text == "&" || tok.text == "->" || tok.text == ",")) {
        continue;
      }
      break;
    }
    // The walk must land on the `)` of a parameter list (or of the last
    // member initializer, which the loop below unwinds).
    while (true) {
      if (!IsPunct(t, j, ")") && !IsPunct(t, j, "}")) {
        return kNpos;
      }
      size_t open = open_of[j];
      if (open == kNpos || open == 0 || !IsIdent(t, open - 1)) {
        return kNpos;  // `](...)` lambda parameter list, or malformed
      }
      size_t head = open - 1;
      while (head >= 2 && IsPunct(t, head - 1, "::") && IsIdent(t, head - 2)) {
        head -= 2;
      }
      if (head > 0 && (IsPunct(t, head - 1, ":") || IsPunct(t, head - 1, ","))) {
        // Constructor member initializer `name(...)` / `name{...}`: step
        // back past the `:`/`,` to the previous `)`/`}` and keep walking.
        if (head < 2) {
          return kNpos;
        }
        j = head - 2;
        continue;
      }
      size_t name = open - 1;
      if (IsControlKeyword(t[name].text) || (name > 0 && IsIdent(t, name - 1, "operator")) ||
          t[name].text == "operator") {
        return kNpos;
      }
      return name;
    }
  }

  // Does the window of tokens before the name chain spell a Task return
  // type?
  bool ReturnsTask(size_t name) const {
    size_t head = name;
    while (head >= 2 && IsPunct(t, head - 1, "::") && IsIdent(t, head - 2)) {
      head -= 2;
    }
    size_t lo = head > 18 ? head - 18 : 0;
    for (size_t j = head; j > lo; --j) {
      const Token& tok = t[j - 1];
      if (tok.kind == TokKind::kPunct &&
          (tok.text == ";" || tok.text == "{" || tok.text == "}" || tok.text == "(")) {
        break;
      }
      if (tok.kind == TokKind::kIdent && tok.text == "Task") {
        return true;
      }
    }
    return false;
  }
};

}  // namespace

Function& CallGraph::Intern(const std::string& qual, const std::string& name) {
  auto [it, inserted] = by_qual_.try_emplace(qual, fns_.size());
  if (inserted) {
    Function f;
    f.qual = qual;
    fns_.push_back(std::move(f));
    by_name_[name].push_back(it->second);
  }
  return fns_[it->second];
}

void CallGraph::AddFile(const LexResult& lex) {
  const std::vector<Token>& t = lex.tokens;
  FileScan scan(t);

  // --- pass A: Task-returning declarations (decl-only conservatism) -------
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!IsIdent(t, i, "Task") || !IsPunct(t, i + 1, "<")) {
      continue;
    }
    // Balanced template scan, bounded by statement punctuation.
    size_t after = kNpos;
    int depth = 0;
    for (size_t j = i + 1; j < t.size() && j < i + 1 + 400; ++j) {
      if (t[j].kind != TokKind::kPunct) {
        continue;
      }
      const std::string& p = t[j].text;
      if (p == "<") {
        ++depth;
      } else if (p == ">") {
        if (--depth == 0) {
          after = j + 1;
          break;
        }
      } else if (p == ";" || p == "{" || p == "}") {
        break;
      }
    }
    if (after == kNpos) {
      continue;
    }
    if (IsPunct(t, after, "&") || IsPunct(t, after, "&&") || IsPunct(t, after, "*")) {
      continue;  // reference/pointer to a task, not a coroutine declaration
    }
    // Scoped name chain, then `(`.
    if (!IsIdent(t, after)) {
      continue;
    }
    size_t name = after;
    size_t k = after + 1;
    while (IsPunct(t, k, "::") && IsIdent(t, k + 1)) {
      name = k + 1;
      k += 2;
    }
    if (!IsPunct(t, k, "(")) {
      continue;
    }
    size_t rparen = scan.match[k];
    if (rparen == kNpos) {
      continue;
    }
    // Declaration when qualifiers lead to `;`; a `{` means the definition
    // pass will record it.
    bool is_decl = false;
    for (size_t j = rparen + 1; j < t.size() && j < rparen + 16; ++j) {
      if (IsPunct(t, j, ";")) {
        is_decl = true;
        break;
      }
      if (IsPunct(t, j, "{") || IsPunct(t, j, ":")) {
        break;
      }
    }
    if (!is_decl) {
      continue;
    }
    std::string last = t[name].text;
    std::string qual = last;
    if (name >= 2 && IsPunct(t, name - 1, "::") && IsIdent(t, name - 2)) {
      qual = t[name - 2].text + "::" + last;
    } else if (!scan.cls[name].empty()) {
      qual = scan.cls[name] + "::" + last;
    }
    Intern(qual, last).returns_task = true;
  }

  // --- pass B: function definitions + their call sites --------------------
  for (size_t b = 0; b < t.size(); ++b) {
    if (!IsPunct(t, b, "{") || scan.match[b] == kNpos) {
      continue;
    }
    size_t name = scan.SignatureName(b);
    if (name == kNpos) {
      continue;
    }
    size_t close = scan.match[b];
    std::string last = t[name].text;
    std::string qual = last;
    if (name >= 2 && IsPunct(t, name - 1, "::") && IsIdent(t, name - 2)) {
      qual = t[name - 2].text + "::" + last;
    } else if (!scan.cls[name].empty()) {
      qual = scan.cls[name] + "::" + last;
    }
    Function& f = Intern(qual, last);
    size_t fn_idx = by_qual_.at(qual);
    f.has_body = true;
    if (scan.ReturnsTask(name)) {
      f.returns_task = true;
    }
    // Walk the body: direct suspensions and call sites, skipping nested
    // lambda bodies (a lambda is its own function on its own schedule).
    // Unqualified calls carry no qualifier here; SiteSuspends resolves them
    // against the enclosing class (derived from `qual`), which keeps the
    // resolution independent of file scan order.
    std::set<std::pair<std::string, std::string>> seen;
    for (size_t i = b + 1; i < close; ++i) {
      if (scan.IsLambdaStart(i)) {
        size_t past = scan.SkipLambda(i);
        if (past != kNpos && past <= close) {
          i = past - 1;
          continue;
        }
      }
      if (t[i].kind != TokKind::kIdent) {
        continue;
      }
      const std::string& id = t[i].text;
      if (id == "co_await" || id == "co_yield") {
        f.direct_suspend = true;
        continue;
      }
      if (id == "resume" && IsPunct(t, i + 1, "(") &&
          (IsPunct(t, i - 1, ".") || IsPunct(t, i - 1, "->"))) {
        // Resuming a coroutine handle is the primitive every pump loop is
        // built on: other coroutines run inside this call.
        f.direct_suspend = true;
        continue;
      }
      if (!IsPunct(t, i + 1, "(") || IsCallKeyword(id)) {
        continue;
      }
      if (i > 0 && IsPunct(t, i - 1, "~")) {
        continue;  // destructor call
      }
      CallSite site;
      site.name = id;
      if (i >= 2 && IsPunct(t, i - 1, "::") && IsIdent(t, i - 2)) {
        site.qualifier = t[i - 2].text;
      }
      if (seen.insert({site.qualifier, site.name}).second) {
        // fns_ may have grown since `f` was bound; re-index.
        fns_[fn_idx].calls.push_back(std::move(site));
      }
    }
  }
}

bool CallGraph::SiteSuspends(const CallSite& site, const std::string& caller_class) const {
  // Exact qualified resolution first.
  for (const std::string* cls : {&site.qualifier, &caller_class}) {
    if (cls->empty()) {
      continue;
    }
    auto it = by_qual_.find(*cls + "::" + site.name);
    if (it != by_qual_.end()) {
      return fns_[it->second].may_suspend;
    }
  }
  // Bare-name resolution: every candidate must suspend.
  auto it = by_name_.find(site.name);
  if (it == by_name_.end() || it->second.empty()) {
    return false;
  }
  for (size_t idx : it->second) {
    if (!fns_[idx].may_suspend) {
      return false;
    }
  }
  return true;
}

bool CallGraph::CallSuspends(const std::string& qualifier, const std::string& name) const {
  CallSite site;
  site.name = name;
  site.qualifier = qualifier;
  return SiteSuspends(site, std::string());
}

void CallGraph::Finalize() {
  // Seed: literal suspensions and body-less Task declarations.
  for (Function& f : fns_) {
    f.may_suspend = f.direct_suspend || (f.returns_task && !f.has_body);
  }
  // Fixpoint: a caller of a may-suspend function may suspend. Monotone
  // (flags only flip false -> true), so iteration order is immaterial.
  bool changed = true;
  while (changed) {
    changed = false;
    for (Function& f : fns_) {
      if (f.may_suspend || !f.has_body) {
        continue;
      }
      std::string caller_class;
      size_t qpos = f.qual.find("::");
      if (qpos != std::string::npos) {
        caller_class = f.qual.substr(0, qpos);
      }
      for (const CallSite& site : f.calls) {
        if (SiteSuspends(site, caller_class)) {
          f.may_suspend = true;
          changed = true;
          break;
        }
      }
    }
  }
}

}  // namespace lint
