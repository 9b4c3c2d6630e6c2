// Repo-wide symbol table, call graph, and transitive may-suspend
// classification for snfslint.
//
// The flow rules in flow.cc need to know which *calls* are suspension
// points, not just which tokens spell `co_await`: a helper that posts a
// coroutine, a method that pumps the simulator, or a `Task<...>`-returning
// function awaited two hops away all interleave other coroutines while the
// caller holds pointers into shared containers. This module builds that
// knowledge from the same token streams the rest of the linter uses:
//
//  1. Symbol table. Every function *definition* (a body we can see, inline
//     in a class or out of line) and every `Task<...>`-returning
//     *declaration* is recorded under a qualified name — `Class::Method`
//     for members (the enclosing class is tracked for inline bodies;
//     out-of-line definitions carry the qualifier themselves) and the bare
//     name for free functions. Declarations and definitions of the same
//     qualified name merge into one record, so a header declaration and
//     its body in the .cc file are one function. Non-Task declarations
//     without a visible body are not recorded — they cannot suspend a
//     caller the analysis could reason about, and leaving them out keeps
//     the bare-name candidate sets small.
//
//  2. Call graph. Each body's call sites (`Name(...)`, `obj.Name(...)`,
//     `Class::Name(...)`) are extracted; nested lambda bodies are skipped (a
//     lambda is its own function and runs on its own schedule). A call site
//     resolves to the exact qualified record when the spelling provides one
//     (`A::B(...)`, or an unqualified call inside a member of `A` when
//     `A::B` exists); otherwise to *every* record sharing the last name —
//     the same textual-overload approximation the statement rules use.
//
//  3. May-suspend fixpoint. A function may suspend when
//       * its body contains a literal `co_await` / `co_yield`, or
//       * its body resumes a coroutine handle (`.resume()`) — that is the
//         primitive every simulator pump loop is built on, or
//       * it is declared to return `sim::Task<...>` and no body is visible
//         anywhere in the scanned tree (conservatively: almost every Task
//         function suspends), or
//       * any of its call sites resolves to a may-suspend function —
//         computed as a fixpoint over the call graph.
//     A call site counts as suspending only when it resolves to at least
//     one known function and *every* candidate may suspend: a name declared
//     both ways is an unresolvable textual overload, and the established
//     convention (see lint.h) is to stay quiet on those rather than taint
//     half the tree.
#ifndef TOOLS_LINT_CALLGRAPH_H_
#define TOOLS_LINT_CALLGRAPH_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "tools/lint/lexer.h"

namespace lint {

// One call site inside a function body, as spelled.
struct CallSite {
  std::string name;       // last name component, e.g. "Flush"
  std::string qualifier;  // explicit `A::` qualifier when spelled, else ""
};

// One function (declaration and/or definition), merged across files by
// qualified name.
struct Function {
  std::string qual;  // "Class::Method" or "Name"
  bool has_body = false;
  bool returns_task = false;
  bool direct_suspend = false;  // literal co_await / co_yield / .resume()
  bool may_suspend = false;
  std::vector<CallSite> calls;
};

class CallGraph {
 public:
  // Harvests function records and call sites from one lexed file. Call once
  // per file, then Finalize() exactly once.
  void AddFile(const LexResult& lex);

  // Runs the may-suspend fixpoint.
  void Finalize();

  // True when a call spelled `qualifier::name(...)` (qualifier may be
  // empty) is a suspension point: it resolves to at least one known
  // function and every candidate may suspend.
  bool CallSuspends(const std::string& qualifier, const std::string& name) const;

  // All records, in discovery order. Valid after Finalize().
  const std::vector<Function>& functions() const { return fns_; }

 private:
  Function& Intern(const std::string& qual, const std::string& name);
  // True when the call site resolves to candidates that all may suspend,
  // under the current fixpoint state.
  bool SiteSuspends(const CallSite& site, const std::string& caller_class) const;

  std::vector<Function> fns_;
  std::map<std::string, size_t> by_qual_;
  std::map<std::string, std::vector<size_t>> by_name_;
};

}  // namespace lint

#endif  // TOOLS_LINT_CALLGRAPH_H_
