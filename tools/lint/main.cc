// snfslint: project-specific static analysis for the Spritely NFS simulator.
//
// Usage: snfslint [--root DIR] [--format=gcc|sarif] [path...]
//
// Paths (files or directories, searched recursively for .h/.cc/.cpp/.hpp)
// are taken relative to --root (default: current directory); with no paths,
// `src` is linted. The default gcc format prints `file:line: rule-id:
// message` lines (clickable in editors and CI logs); --format=sarif prints a
// SARIF 2.1.0 log for GitHub code-scanning upload. Both exit 1 when any
// diagnostic is found, with a per-rule count summary on stderr (printed even
// when clean, so CI logs show each rule ran). See tools/lint/lint.h for the
// rule list and the `// lint: <rule>-ok` suppression syntax.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace {

namespace fs = std::filesystem;

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

// Collects source files under `path` (or `path` itself) into `files`,
// sorted so diagnostics are stable across platforms.
bool CollectFiles(const fs::path& path, std::vector<fs::path>& files) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (fs::recursive_directory_iterator it(path, ec), end; it != end; it.increment(ec)) {
      if (ec) {
        return false;
      }
      if (it->is_regular_file() && IsSourceFile(it->path())) {
        files.push_back(it->path());
      }
    }
    return true;
  }
  if (fs::is_regular_file(path, ec)) {
    files.push_back(path);
    return true;
  }
  return false;
}

// Minimal JSON string escaping: messages contain backticks and quotes but
// never non-ASCII, so escaping quotes, backslashes, and control bytes is
// enough.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string format = "gcc";
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "gcc" && format != "sarif") {
        std::fprintf(stderr, "snfslint: unknown format '%s' (expected gcc or sarif)\n",
                     format.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: snfslint [--root DIR] [--format=gcc|sarif] [path...]\n");
      return 0;
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) {
    args.push_back("src");
  }

  std::vector<fs::path> files;
  for (const std::string& arg : args) {
    fs::path p = fs::path(arg).is_absolute() ? fs::path(arg) : root / arg;
    if (!CollectFiles(p, files)) {
      std::fprintf(stderr, "snfslint: cannot read %s\n", p.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  lint::Linter linter;
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "snfslint: cannot open %s\n", file.string().c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    // Report paths relative to --root so diagnostics are stable regardless
    // of where the tool is invoked from.
    std::error_code ec;
    fs::path rel = fs::relative(file, root, ec);
    linter.AddFile((ec || rel.empty()) ? file.generic_string() : rel.generic_string(),
                   buf.str());
  }

  std::vector<lint::Diagnostic> diags = linter.Run();
  if (format == "sarif") {
    // SARIF 2.1.0, the minimal shape GitHub code scanning accepts. The rules
    // array lists every rule the tool knows, fired or not, so code-scanning
    // dashboards show the full rule inventory.
    const std::vector<std::string>& rule_ids = lint::Linter::KnownRules();
    std::printf("{\n");
    std::printf("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    std::printf("  \"version\": \"2.1.0\",\n");
    std::printf("  \"runs\": [\n    {\n");
    std::printf("      \"tool\": {\n        \"driver\": {\n");
    std::printf("          \"name\": \"snfslint\",\n");
    std::printf("          \"informationUri\": \"tools/lint/lint.h\",\n");
    std::printf("          \"rules\": [");
    for (size_t i = 0; i < rule_ids.size(); ++i) {
      std::printf("%s\n            {\"id\": \"%s\"}", i == 0 ? "" : ",",
                  JsonEscape(rule_ids[i]).c_str());
    }
    std::printf("%s]\n        }\n      },\n", rule_ids.empty() ? "" : "\n          ");
    std::printf("      \"results\": [");
    for (size_t i = 0; i < diags.size(); ++i) {
      const lint::Diagnostic& d = diags[i];
      std::printf("%s\n        {\"ruleId\": \"%s\", \"level\": \"error\", "
                  "\"message\": {\"text\": \"%s\"}, \"locations\": [{\"physicalLocation\": "
                  "{\"artifactLocation\": {\"uri\": \"%s\"}, \"region\": {\"startLine\": "
                  "%d}}}]}",
                  i == 0 ? "" : ",", JsonEscape(d.rule).c_str(), JsonEscape(d.message).c_str(),
                  JsonEscape(d.file).c_str(), d.line);
    }
    std::printf("%s]\n    }\n  ]\n}\n", diags.empty() ? "" : "\n      ");
  } else {
    for (const lint::Diagnostic& d : diags) {
      std::printf("%s:%d: %s: %s\n", d.file.c_str(), d.line, d.rule.c_str(), d.message.c_str());
    }
  }
  // Per-rule counts, printed even on a clean run so CI logs show every rule
  // was exercised (zeros elided; rule inventory comes from KnownRules()).
  std::map<std::string, int> by_rule;
  for (const lint::Diagnostic& d : diags) {
    ++by_rule[d.rule];
  }
  std::fprintf(stderr, "snfslint: %zu diagnostic(s)", diags.size());
  if (!by_rule.empty()) {
    std::fprintf(stderr, ":");
    for (const auto& [rule, count] : by_rule) {
      std::fprintf(stderr, " %s=%d", rule.c_str(), count);
    }
  }
  std::fprintf(stderr, "\n");
  return diags.empty() ? 0 : 1;
}
