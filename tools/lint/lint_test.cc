// Tests for snfslint: every rule has a _bad fixture that must fire and a
// _good fixture that must stay clean, plus direct lexer/suppression checks.
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/lexer.h"
#include "tools/lint/lint.h"

namespace lint {
namespace {

std::string ReadFixture(const std::string& name) {
  std::string path = std::string(LINT_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Lints one fixture registered under `as_path` and returns the rule ids of
// every diagnostic.
std::vector<std::string> RulesFiredOn(const std::string& fixture, const std::string& as_path) {
  Linter linter;
  linter.AddFile(as_path, ReadFixture(fixture));
  std::vector<std::string> rules;
  for (const Diagnostic& d : linter.Run()) {
    rules.push_back(d.rule);
  }
  return rules;
}

int CountRule(const std::vector<std::string>& rules, const std::string& rule) {
  int n = 0;
  for (const std::string& r : rules) {
    if (r == rule) {
      ++n;
    }
  }
  return n;
}

TEST(SnfslintTest, CoroRefFires) {
  std::vector<std::string> rules = RulesFiredOn("coro_ref_bad.cc", "coro_ref_bad.cc");
  EXPECT_EQ(CountRule(rules, "coro-ref"), 4);
}

TEST(SnfslintTest, CoroRefQuiet) {
  std::vector<std::string> rules = RulesFiredOn("coro_ref_good.cc", "coro_ref_good.cc");
  EXPECT_EQ(CountRule(rules, "coro-ref"), 0) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, CoroLambdaFires) {
  std::vector<std::string> rules = RulesFiredOn("coro_lambda_bad.cc", "coro_lambda_bad.cc");
  EXPECT_EQ(CountRule(rules, "coro-lambda"), 1);
}

TEST(SnfslintTest, CoroLambdaQuiet) {
  std::vector<std::string> rules = RulesFiredOn("coro_lambda_good.cc", "coro_lambda_good.cc");
  EXPECT_EQ(CountRule(rules, "coro-lambda"), 0) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, NondetFires) {
  std::vector<std::string> rules = RulesFiredOn("nondet_bad.cc", "nondet_bad.cc");
  EXPECT_EQ(CountRule(rules, "nondet"), 5);
}

TEST(SnfslintTest, NondetQuiet) {
  std::vector<std::string> rules = RulesFiredOn("nondet_good.cc", "nondet_good.cc");
  EXPECT_EQ(CountRule(rules, "nondet"), 0) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, OrderedFiresInSensitiveDir) {
  std::vector<std::string> rules = RulesFiredOn("ordered_bad.cc", "src/sim/ordered_bad.cc");
  EXPECT_EQ(CountRule(rules, "ordered"), 2);
}

TEST(SnfslintTest, OrderedQuietOnSuppressionsAndSnapshots) {
  std::vector<std::string> rules = RulesFiredOn("ordered_good.cc", "src/sim/ordered_good.cc");
  EXPECT_EQ(CountRule(rules, "ordered"), 0) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, OrderedScopedToSensitiveDirs) {
  // The same hazardous fixture is fine outside the order-sensitive tree.
  std::vector<std::string> rules = RulesFiredOn("ordered_bad.cc", "src/workload/ordered_bad.cc");
  EXPECT_EQ(CountRule(rules, "ordered"), 0);
}

TEST(SnfslintTest, UnusedStatusFires) {
  std::vector<std::string> rules = RulesFiredOn("unused_status_bad.cc", "unused_status_bad.cc");
  EXPECT_EQ(CountRule(rules, "unused-status"), 1) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, UnusedStatusQuiet) {
  std::vector<std::string> rules = RulesFiredOn("unused_status_good.cc", "unused_status_good.cc");
  EXPECT_EQ(CountRule(rules, "unused-status"), 0) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, AwaitStaleRefFires) {
  // Pointer from a `T*`-returning function, iterator from `.find()`,
  // reference from an `// lint: unstable-source` function, and a loop
  // back-edge use.
  std::vector<std::string> rules = RulesFiredOn("await_stale_ref_bad.cc", "await_stale_ref_bad.cc");
  EXPECT_EQ(CountRule(rules, "await-stale-ref"), 4) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, AwaitStaleRefQuiet) {
  // Re-acquisition, value copies, await-produced values, pruned suspending
  // branches, and a binding-line suppression are all clean — and the
  // suppression counts as used, so suppression-audit stays quiet too.
  std::vector<std::string> rules =
      RulesFiredOn("await_stale_ref_good.cc", "await_stale_ref_good.cc");
  EXPECT_TRUE(rules.empty()) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, AwaitCachedSizeFires) {
  std::vector<std::string> rules =
      RulesFiredOn("await_cached_size_bad.cc", "await_cached_size_bad.cc");
  EXPECT_EQ(CountRule(rules, "await-cached-size"), 2) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, AwaitCachedSizeQuiet) {
  std::vector<std::string> rules =
      RulesFiredOn("await_cached_size_good.cc", "await_cached_size_good.cc");
  EXPECT_TRUE(rules.empty()) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, TransitiveSuspendFires) {
  // The suspension is two call-graph hops from the victims: a pointer held
  // across the helper call and a size snapshot branched on after it.
  std::vector<std::string> rules =
      RulesFiredOn("transitive_suspend_bad.cc", "transitive_suspend_bad.cc");
  EXPECT_EQ(CountRule(rules, "await-stale-ref"), 1) << ::testing::PrintToString(rules);
  EXPECT_EQ(CountRule(rules, "await-cached-size"), 1) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, TransitiveSuspendQuiet) {
  // A visibly non-suspending callee, re-acquisition after the helper call,
  // and a value copy before it are all clean.
  std::vector<std::string> rules =
      RulesFiredOn("transitive_suspend_good.cc", "transitive_suspend_good.cc");
  EXPECT_TRUE(rules.empty()) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, SuspendEscapeFires) {
  // A pointer, an iterator, and a reference each passed whole into a
  // may-suspend callee.
  std::vector<std::string> rules =
      RulesFiredOn("suspend_escape_bad.cc", "suspend_escape_bad.cc");
  EXPECT_EQ(CountRule(rules, "suspend-escape"), 3) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, SuspendEscapeQuiet) {
  // Value reads through the handle, an opaque (never-shown-to-suspend)
  // callee, and an audited handoff are all clean.
  std::vector<std::string> rules =
      RulesFiredOn("suspend_escape_good.cc", "suspend_escape_good.cc");
  EXPECT_TRUE(rules.empty()) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, MaySuspendPropagatesAcrossFiles) {
  // A header-only Task declaration seeds the fixpoint; an out-of-line body
  // in another file that calls it classifies may-suspend.
  Linter linter;
  linter.AddFile("s.h", "struct S {\n  sim::Task<void> Sync();\n  void Kick();\n  "
                        "sim::Task<void> pending_;\n};\n");
  linter.AddFile("s.cc", "void S::Kick() { pending_ = Sync(); }\n");
  (void)linter.Run();
  bool found = false;
  for (const Function& f : linter.callgraph().functions()) {
    if (f.qual == "S::Kick") {
      found = true;
      EXPECT_TRUE(f.may_suspend);
    }
    if (f.qual == "S::Sync") {
      EXPECT_TRUE(f.may_suspend);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SnfslintTest, MixedCandidatesDoNotSuspend) {
  // A bare name declared both as a may-suspend Task and as a visibly
  // non-suspending body is an unresolvable textual overload: call sites
  // stay quiet rather than tainting half the tree.
  Linter linter;
  linter.AddFile("a.h", "struct A { sim::Task<void> Run(); };\n");
  linter.AddFile("b.h", "struct B { int Run() { return 1; } };\n");
  (void)linter.Run();
  EXPECT_FALSE(linter.callgraph().CallSuspends("", "Run"));
  EXPECT_TRUE(linter.callgraph().CallSuspends("A", "Run"));
  EXPECT_FALSE(linter.callgraph().CallSuspends("B", "Run"));
}

TEST(SnfslintTest, SuppressionAuditFires) {
  // One suppression that absorbs nothing and one naming an unknown rule.
  std::vector<std::string> rules =
      RulesFiredOn("suppression_audit_bad.cc", "suppression_audit_bad.cc");
  EXPECT_EQ(CountRule(rules, "suppression-audit"), 2) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, SuppressionAuditQuiet) {
  std::vector<std::string> rules =
      RulesFiredOn("suppression_audit_good.cc", "suppression_audit_good.cc");
  EXPECT_TRUE(rules.empty()) << ::testing::PrintToString(rules);
}

TEST(SnfslintTest, UnknownAnnotationWordAudited) {
  // A `// lint:` comment must start with `<rule>-ok` or `unstable-source`:
  // a misspelt or retired annotation is reported, naming the word, instead
  // of silently doing nothing. Reason text after a valid first word is free.
  Linter linter;
  linter.AddFile("t.h",
                 "struct E { int v; };\n"
                 "// lint: unstable-sorce\n"
                 "E& Get(int key);\n"
                 "E& Pick(int key);  // lint: unstable-source returns a slot in the table\n"
                 "sim::Task<void> Drain();  // lint: lock-escapes\n");
  std::vector<Diagnostic> diags = linter.Run();
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "suppression-audit");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("`// lint: unstable-sorce`"), std::string::npos)
      << diags[0].message;
  EXPECT_EQ(diags[1].rule, "suppression-audit");
  EXPECT_EQ(diags[1].line, 5);
  EXPECT_NE(diags[1].message.find("`// lint: lock-escapes`"), std::string::npos)
      << diags[1].message;
}

TEST(SnfslintTest, UnstableSourceInferredAcrossFiles) {
  // A `T*`-returning declaration in a header taints call sites in another
  // file, exactly like the Task-function tables.
  Linter linter;
  linter.AddFile("decl.h", "struct E { int v; };\nE* Find(int key);\nsim::Task<void> Nap();\n");
  linter.AddFile("use.cc",
                 "sim::Task<int> F() {\n"
                 "  E* e = Find(1);\n"
                 "  co_await Nap();\n"
                 "  co_return e->v;\n"
                 "}\n");
  std::vector<Diagnostic> diags = linter.Run();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "await-stale-ref");
  EXPECT_EQ(diags[0].file, "use.cc");
  EXPECT_EQ(diags[0].line, 4);
}

TEST(SnfslintTest, TaskFunctionsMatchedAcrossFiles) {
  // A Task-returning function declared in one file is tracked at call sites
  // in another.
  Linter linter;
  linter.AddFile("decl.h", "namespace x { sim::Task<base::Status> Background(); }\n");
  linter.AddFile("use.cc", "sim::Task<void> F() { co_await x::Background(); }\n");
  std::vector<Diagnostic> diags = linter.Run();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unused-status");
  EXPECT_EQ(diags[0].file, "use.cc");
}

TEST(SnfslintTest, AmbiguousNamesStayQuiet) {
  // `Run` returns Task<Status> in one class and a plain value in another;
  // the textual matcher cannot resolve the overload, so unused-status stays
  // quiet.
  Linter linter;
  linter.AddFile("a.h", "struct A { sim::Task<base::Status> Run(); };\n");
  linter.AddFile("b.h", "struct B { int Run(); };\n");
  linter.AddFile("use.cc", "sim::Task<void> F(A& a) { co_await a.Run(); }\n");
  EXPECT_TRUE(linter.Run().empty());
}

TEST(SnfslintTest, MixedTaskPayloadSkipsUnusedStatus) {
  // `Write` returns Task<Result<...>> in one class and Task<void> in
  // another: awaiting it without consuming the value is not flaggable.
  Linter linter;
  linter.AddFile("a.h", "struct A { sim::Task<base::Result<void>> Write(int fd); };\n");
  linter.AddFile("b.h", "struct B { sim::Task<void> Write(int bytes); };\n");
  linter.AddFile("use.cc", "sim::Task<void> F(B& b) { co_await b.Write(1); }\n");
  EXPECT_TRUE(linter.Run().empty());
}

TEST(SnfslintTest, UnorderedVarsScopedToPairedFiles) {
  // An unordered member in one class must not taint a same-named ordered
  // container in an unrelated file.
  Linter linter;
  linter.AddFile("src/rpc/a.h", "struct A { std::unordered_map<int, int> items_; };\n");
  linter.AddFile("src/rpc/a.cc",
                 "int A::Sum() { int t = 0; for (auto& [k, v] : items_) t += v; return t; }\n");
  linter.AddFile("src/rpc/b.cc",
                 "int Other() { std::map<int, int> items_; int t = 0;"
                 " for (auto& [k, v] : items_) t += v; return t; }\n");
  std::vector<Diagnostic> diags = linter.Run();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "ordered");
  EXPECT_EQ(diags[0].file, "src/rpc/a.cc");
}

TEST(LexerTest, SuppressionOnOwnAndNextLine) {
  LexResult lex = Lex(
      "int a;  // lint: ordered-ok\n"
      "// lint: coro-ref-ok nondet-ok\n"
      "int b;\n");
  EXPECT_TRUE(lex.suppressions.at(1).count("ordered"));
  EXPECT_TRUE(lex.suppressions.at(2).count("coro-ref"));
  EXPECT_TRUE(lex.suppressions.at(3).count("coro-ref"));
  EXPECT_TRUE(lex.suppressions.at(3).count("nondet"));
  EXPECT_EQ(lex.suppressions.count(4), 0u);
}

TEST(LexerTest, BannedNamesInLiteralsAndCommentsIgnored) {
  Linter linter;
  linter.AddFile("src/sim/x.cc",
                 "// rand() in a comment\n"
                 "const char* kMsg = \"call rand() later\";\n");
  EXPECT_TRUE(linter.Run().empty());
}

TEST(LexerTest, TracksLinesThroughBlockCommentsAndStrings) {
  LexResult lex = Lex("/* line1\nline2 */\nint x;\n");
  ASSERT_EQ(lex.tokens.size(), 3u);
  EXPECT_EQ(lex.tokens[0].text, "int");
  EXPECT_EQ(lex.tokens[0].line, 3);
}

}  // namespace
}  // namespace lint
