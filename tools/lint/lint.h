// snfslint rule engine.
//
// The linter runs in two passes over a set of files:
//
//  Pass 1 collects declarations: names of functions returning sim::Task<...>
//  (and whether the task's payload is a base::Status / base::Result), names
//  of functions declared with any other return type, and names of variables
//  declared as std::unordered_map / std::unordered_set.
//
//  Pass 2 applies the rules to each file's token stream, consulting the
//  collected declarations. Function names are matched repo-wide (call sites
//  routinely cross files); unordered-container variable names are matched
//  per file plus its paired header/source (x.cc <-> x.h), which keeps an
//  unordered member in one class from tainting a same-named ordered local
//  elsewhere.
//
// Rules (diagnostic ids; suppress with `// lint: <id>-ok` on the line or a
// standalone comment on the line above):
//
//  coro-ref      A sim::Task-returning function takes a parameter that can
//                dangle across a suspension point: const lvalue reference
//                (binds temporaries), rvalue reference, std::string_view, or
//                std::span. Non-const lvalue references are allowed: they
//                cannot bind temporaries and idiomatically name long-lived
//                services (sim::Simulator&, vfs::Vfs&).
//  coro-lambda   A lambda with a reference capture whose body contains
//                co_await / co_return / co_yield: the closure lives in the
//                coroutine frame and its captures can outlive the enclosing
//                scope.
//  nondet        Use of a wall-clock or ambient-randomness source (rand,
//                srand, std::random_device, std::chrono::system_clock,
//                time()) inside the simulation: all stochastic behaviour
//                must flow from sim::Rng seeds.
//  ordered       Range-for over an unordered container in an
//                order-sensitive directory (src/sim, src/net, src/rpc,
//                src/nfs, src/snfs, src/nqnfs, src/cache): hash order can
//                silently change simulated event ordering.
//  unused-status The base::Status / base::Result payload of a bare
//                `co_await SomeTask(...);` statement dropped without an
//                explicit (void) cast. Dropping a plain Status, Result or
//                Task return value is the compiler's job: all three types
//                are [[nodiscard]] and the build makes -Wunused-result an
//                error, but the compiler cannot see into a co_await payload.
//
// Flow-sensitive rules (see flow.cc). These walk each function body as a
// statement tree with suspension points marked and track which locals hold
// values that another interleaved coroutine can invalidate while this one
// is suspended. A suspension point is a literal `co_await`/`co_yield` *or a
// call to a may-suspend function*: the repo-wide call graph (callgraph.h)
// classifies every function by a fixpoint — it may suspend when its body
// contains `co_await`/`co_yield`, resumes a coroutine handle, is a
// `Task<...>`-returning declaration with no visible body, or calls a
// may-suspend function:
//
//  await-stale-ref    A local bound to an *unstable source* — a function
//                     returning a raw pointer/reference into a container
//                     (`Entry* Find(...)`, `Result<Inode*> Resolve(...)`,
//                     anything annotated `// lint: unstable-source`), a
//                     container lookup (`.find()`, `.begin()`,
//                     `operator[]`, `.at()`), or `&container[key]` — is
//                     dereferenced after a suspension point (a co_await or
//                     a may-suspend call) without being re-acquired. Fix:
//                     re-lookup after the await, or copy the needed values
//                     before suspending.
//  await-cached-size  A container size/emptiness snapshot (`.size()`,
//                     `.empty()`, `.count()`) taken before a suspension
//                     point is branched on after it; the container may have
//                     changed while the coroutine slept.
//  suspend-escape     A tracked pointer/iterator/reference is passed, as a
//                     whole argument, *into* a may-suspend callee: the
//                     callee can hold it across its own suspension while
//                     another coroutine invalidates it, which no
//                     per-function analysis of either side can see. Pass
//                     the key (let the callee re-look-up) or copied values
//                     instead. Reading *through* the handle in the argument
//                     list (`f(e->size)`) is a pre-suspension value read
//                     and stays quiet.
//  suppression-audit  A `// lint: <rule>-ok` comment that no longer
//                     suppresses any diagnostic (the code was fixed, the
//                     rule changed, or the id is misspelled) is itself an
//                     error, keeping the suppression inventory honest. So is
//                     a `// lint:` comment whose first word is neither
//                     `<rule>-ok` nor `unstable-source`: a misspelt or
//                     retired annotation would otherwise do nothing.
//
// Unstable sources are inferred from declarations repo-wide: any function
// declared to return `T*` or `base::Result<T*>`, plus any function whose
// declaration line carries `// lint: unstable-source` (for functions that
// return references into containers, which the return type cannot reveal).
// Bindings whose initializer contains `co_await` are treated as stable: the
// value was produced fresh at the suspension point.
#ifndef TOOLS_LINT_LINT_H_
#define TOOLS_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "tools/lint/callgraph.h"
#include "tools/lint/lexer.h"

namespace lint {

struct Diagnostic {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

// Declarations harvested from one file in pass 1.
struct FileDecls {
  // Function name -> payload bitmask: kStatusPayload when the Task payload
  // is Status/Result-like, kOtherPayload otherwise. A name declared both
  // ways (e.g. Write in vfs and disk) has both bits set.
  static constexpr int kStatusPayload = 1;
  static constexpr int kOtherPayload = 2;
  std::map<std::string, int> task_fns;
  // Functions declared with a non-Task return type (Status and Result
  // included); a name that also appears here is ambiguous and unused-status
  // stays quiet (e.g. Simulator::Run() vs. a Task-returning Run elsewhere).
  std::set<std::string> other_fns;
  std::set<std::string> unordered_vars;
  // Functions returning raw pointers (`T*`), pointer payloads
  // (`Result<T*>`), or carrying a `// lint: unstable-source` annotation.
  std::set<std::string> unstable_fns;
};

class Linter {
 public:
  // Pass 1: lex `source` and harvest declarations. `path` is the name used
  // in diagnostics and for the ordered-rule directory check.
  void AddFile(const std::string& path, const std::string& source);

  // Pass 2: apply all rules to every added file. Returns diagnostics sorted
  // by (file, line, rule).
  std::vector<Diagnostic> Run();

  // True when `path` is under a directory where iteration order feeds the
  // event queue (the `ordered` rule's scope).
  static bool InOrderSensitiveDir(const std::string& path);

  // The repo-wide call graph with may-suspend classifications. Valid after
  // Run().
  const CallGraph& callgraph() const { return callgraph_; }

  // Every rule id the linter can emit, sorted. Drives the SARIF rules array,
  // the per-rule count summary, and the suppression-audit spell check.
  static const std::vector<std::string>& KnownRules();

 private:
  struct FileState {
    std::string path;
    LexResult lex;
    FileDecls decls;
  };

  void CollectDecls(FileState& fs);
  void LintFile(const FileState& fs, std::vector<Diagnostic>& out);

  // Rules. `unordered` is the effective unordered-variable set for the file.
  void CheckCoroParams(const FileState& fs, std::vector<Diagnostic>& out);
  void CheckCoroLambdas(const FileState& fs, std::vector<Diagnostic>& out);
  void CheckNondet(const FileState& fs, std::vector<Diagnostic>& out);
  void CheckOrderedIteration(const FileState& fs, const std::set<std::string>& unordered,
                             std::vector<Diagnostic>& out);
  void CheckStatements(const FileState& fs, std::vector<Diagnostic>& out);
  // Flow-sensitive pass: await-stale-ref and await-cached-size (flow.cc).
  void CheckFlow(const FileState& fs, std::vector<Diagnostic>& out);
  // Post-pass over every file's suppression notes (needs the used_ set
  // filled in by all other rules, so it runs last).
  void CheckSuppressions(const FileState& fs, std::vector<Diagnostic>& out);

  bool Suppressed(const FileState& fs, int line, const std::string& rule);
  void Emit(const FileState& fs, int line, const std::string& rule, std::string message,
            std::vector<Diagnostic>& out);

  std::vector<FileState> files_;
  // Repo-wide call graph + may-suspend fixpoint (rebuilt in Run()).
  CallGraph callgraph_;
  // Global function tables (populated after all AddFile calls, in Run()).
  std::map<std::string, int> task_fns_;
  std::set<std::string> other_fns_;
  std::set<std::string> unstable_fns_;
  // (file, line, rule) triples where a suppression absorbed a diagnostic;
  // suppression-audit flags notes that never land here.
  std::set<std::tuple<std::string, int, std::string>> used_;
};

}  // namespace lint

#endif  // TOOLS_LINT_LINT_H_
