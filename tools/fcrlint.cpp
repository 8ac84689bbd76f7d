// fcrlint CLI — walks the tree and applies the rules in fcrlint_rules.hpp
// plus the interprocedural model rules (fcrlint_model.hpp).
//
// Usage:
//   fcrlint [--root DIR] [--quiet] [--sarif FILE] [PATH...]
//   fcrlint --explain RULE | --list-rules | --help
//
// PATHs (default: src) are resolved relative to --root (default: the current
// directory) and scanned recursively for .hpp/.h/.cpp/.cc files. The whole
// batch is linted together by lint_tree, so the cross-file analyses —
// include cycles and the interprocedural program model — see the full
// graph. Findings are printed as file:line: [rule] message; exit status is
// 0 when clean, 1 when any finding was reported, 2 on a usage error.
//
//   --quiet         print nothing when the run is clean
//   --sarif FILE    additionally write the findings as a SARIF 2.1.0 log
//                   (CI uploads it to code scanning)
//   --explain RULE  print the rule's rationale, a minimal violating program
//                   and its suppression form
//   --list-rules    print the rule catalogue
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fcrlint_rules.hpp"
#include "fcrlint_sarif.hpp"

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void print_rules() {
  std::cout << "fcrlint rules:\n";
  for (const fcrlint::RuleMeta& r : fcrlint::kRules) {
    std::cout << "  " << r.id << "\n      " << r.summary << '\n';
  }
  std::cout << "suppress with: FCRLINT_ALLOW(<rule>): <reason>\n";
}

/// --explain <rule>: the rule's one-line summary, its rationale, the
/// smallest violating program, and the sanctioned suppression form.
int explain(const std::string& rule) {
  const fcrlint::RuleExplanation* ex = fcrlint::explain_rule(rule);
  if (ex == nullptr || !fcrlint::is_known_rule(rule)) {
    std::cerr << "fcrlint: unknown rule '" << rule
              << "' (see --list-rules)\n";
    return 2;
  }
  for (const fcrlint::RuleMeta& r : fcrlint::kRules) {
    if (r.id == rule) {
      std::cout << rule << " — " << r.summary << "\n\n";
      break;
    }
  }
  std::cout << "why:\n  " << ex->rationale << "\n\n"
            << "minimal violation:\n"
            << ex->example << "\n\n"
            << "suppression (use sparingly, always with a reason):\n  "
            << ex->allow << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<std::string> paths;
  bool quiet = false;
  std::string sarif_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* opt) -> const char* {
      if (++i >= argc) {
        std::cerr << "fcrlint: " << opt << " needs an argument\n";
        return nullptr;
      }
      return argv[i];
    };
    if (arg == "--root") {
      const char* v = value("--root");
      if (v == nullptr) return 2;
      root = v;
    } else if (arg == "--sarif") {
      const char* v = value("--sarif");
      if (v == nullptr) return 2;
      sarif_path = v;
    } else if (arg == "--explain") {
      const char* v = value("--explain");
      if (v == nullptr) return 2;
      return explain(v);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-rules") {
      print_rules();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: fcrlint [--root DIR] [--quiet] [--sarif FILE] "
                   "[PATH...]\n"
                   "       fcrlint --explain RULE | --list-rules | --help\n";
      print_rules();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "fcrlint: unknown option " << arg << '\n';
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths.push_back("src");

  std::vector<fcrlint::FileInput> inputs;
  for (const std::string& p : paths) {
    const fs::path base = root / p;
    if (!fs::exists(base)) {
      std::cerr << "fcrlint: no such path: " << base.string() << '\n';
      return 2;
    }
    std::vector<fs::path> files;
    if (fs::is_directory(base)) {
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (entry.is_regular_file() && lintable(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else {
      files.push_back(base);
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& f : files) {
      inputs.push_back(
          {fs::relative(f, root).lexically_normal().generic_string(),
           read_file(f)});
    }
  }

  const std::vector<fcrlint::Finding> findings = fcrlint::lint_tree(inputs);

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::cerr << "fcrlint: cannot write " << sarif_path << '\n';
      return 2;
    }
    out << fcrlint::to_sarif(findings);
  }

  for (const fcrlint::Finding& f : findings) {
    std::cout << f.file << ':' << f.line << ": [" << f.rule << "] "
              << f.message << '\n';
  }
  if (!quiet || !findings.empty()) {
    std::cout << "fcrlint: " << findings.size() << " finding(s) in "
              << inputs.size() << " file(s)\n";
  }
  return findings.empty() ? 0 : 1;
}
