// fcrlint CLI — walks the tree and applies the rules in fcrlint_rules.hpp
// plus the v3 interprocedural model rules (fcrlint_model.hpp).
//
// Usage:
//   fcrlint [--root DIR] [--quiet] [--sarif FILE] [--cache FILE]
//           [--timings] [--stats-out FILE] [--fix]
//           [--diff-base REF | --diff-file FILE] [PATH...]
//
// PATHs (default: src) are resolved relative to --root (default: the current
// directory) and scanned recursively for .hpp/.h/.cpp/.cc files. The whole
// batch is linted together, so the cross-file analyses — include cycles and
// the interprocedural program model — see the full graph. Findings are
// printed as file:line: [rule] message; exit status is nonzero iff any
// finding was reported (after diff filtering, when enabled).
//
//   --sarif FILE      additionally write the findings as a SARIF 2.1.0 log
//                     (consumed by CI's upload-sarif step for inline PR
//                     annotations)
//   --cache FILE      persist per-file artifacts keyed by content hash;
//                     warm runs re-lex only changed files
//   --timings         print per-phase wall times and cache hit counts
//   --stats-out FILE  write a small JSON blob (phase times, cache hit rate)
//                     for CI archiving
//   --fix             apply the mechanical rewrites (pragma-once insertion,
//                     deprecated C header renames) in place, then lint the
//                     fixed contents; prints one line per rewritten file
//   --diff-base REF   report only findings on lines changed vs the git ref
//                     (runs `git diff -U0 --no-color REF` under --root)
//   --diff-file FILE  like --diff-base, but read a pre-computed unified diff
//                     from FILE ('-' for stdin); used by tests
//
// Analysis of cache-missed files runs in parallel on fcr::ThreadPool::
// global() when the batch is large enough to amortize the pool; results
// land in pre-sized slots indexed by file, so the output is bit-identical
// to the serial order (the same discipline the trial runner uses).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fcrlint_cache.hpp"
#include "fcrlint_diff.hpp"
#include "fcrlint_fix.hpp"
#include "fcrlint_rules.hpp"
#include "fcrlint_sarif.hpp"
#include "sim/thread_pool.hpp"

namespace fs = std::filesystem;

namespace {

/// Analyze batches below this size run serially: pool startup and task
/// dispatch would dominate the lexing they parallelize.
constexpr std::size_t kParallelThreshold = 8;

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

/// Runs `git diff -U0 --no-color <ref>` under `root` and captures stdout.
/// Returns false (with a message on stderr) if git fails.
bool git_diff(const fs::path& root, const std::string& ref, std::string& out) {
  // The ref came from the command line; refuse shell metacharacters instead
  // of trying to quote them portably.
  for (const char c : ref) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '/' || c == '-' ||
                    c == '_' || c == '.' || c == '~' || c == '^' || c == '@';
    if (!ok) {
      std::cerr << "fcrlint: unsupported character in --diff-base ref\n";
      return false;
    }
  }
  const std::string cmd =
      "git -C '" + root.string() + "' diff -U0 --no-color " + ref;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    std::cerr << "fcrlint: failed to run git diff\n";
    return false;
  }
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    out.append(buf, got);
  }
  const int status = ::pclose(pipe);
  if (status != 0) {
    std::cerr << "fcrlint: git diff " << ref << " failed (status " << status
              << ")\n";
    return false;
  }
  return true;
}

/// Wall-clock phase timer (tools-only; the determinism rule scopes to src/).
class PhaseClock {
 public:
  void mark(const std::string& phase) {
    const auto now = std::chrono::steady_clock::now();
    if (!phases_.empty() || started_) {
      phases_.emplace_back(
          pending_,
          std::chrono::duration<double, std::milli>(now - last_).count());
    }
    pending_ = phase;
    last_ = now;
    started_ = true;
  }
  void finish() { mark(""); }
  const std::vector<std::pair<std::string, double>>& phases() const {
    return phases_;
  }
  double total() const {
    double t = 0;
    for (const auto& [name, ms] : phases_) t += ms;
    return t;
  }

 private:
  std::vector<std::pair<std::string, double>> phases_;
  std::string pending_;
  std::chrono::steady_clock::time_point last_;
  bool started_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<std::string> paths;
  bool quiet = false;
  bool timings = false;
  bool fix = false;
  std::string sarif_path;
  std::string cache_path;
  std::string stats_path;
  std::string diff_base;
  std::string diff_file;
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
    } else if (arg == "--cache") {
      const char* v = value("--cache");
      if (v == nullptr) return 2;
      cache_path = v;
    } else if (arg == "--stats-out") {
      const char* v = value("--stats-out");
      if (v == nullptr) return 2;
      stats_path = v;
    } else if (arg == "--diff-base") {
      const char* v = value("--diff-base");
      if (v == nullptr) return 2;
      diff_base = v;
    } else if (arg == "--diff-file") {
      const char* v = value("--diff-file");
      if (v == nullptr) return 2;
      diff_file = v;
    } else if (arg == "--explain") {
      const char* v = value("--explain");
      if (v == nullptr) return 2;
      return explain(v);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--timings") {
      timings = true;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--list-rules") {
      print_rules();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: fcrlint [--root DIR] [--quiet] [--sarif FILE]\n"
                   "               [--cache FILE] [--timings] [--stats-out "
                   "FILE] [--fix]\n"
                   "               [--explain RULE]\n"
                   "               [--diff-base REF | --diff-file FILE]\n"
                   "               [--list-rules] [PATH...]\n";
      print_rules();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "fcrlint: unknown option " << arg << '\n';
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (!diff_base.empty() && !diff_file.empty()) {
    std::cerr << "fcrlint: --diff-base and --diff-file are exclusive\n";
    return 2;
  }
  if (paths.empty()) paths.push_back("src");

  PhaseClock clock;
  clock.mark("walk");
  struct WalkedFile {
    std::string rel;
    fs::path abs;
  };
  std::vector<WalkedFile> walked;
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
      walked.push_back(
          {fs::relative(f, root).lexically_normal().generic_string(), f});
    }
  }

  clock.mark("read");
  std::vector<fcrlint::FileInput> inputs;
  inputs.reserve(walked.size());
  for (const WalkedFile& w : walked) {
    inputs.push_back({w.rel, read_file(w.abs)});
  }

  std::size_t fixed_files = 0;
  std::size_t fix_edits = 0;
  if (fix) {
    clock.mark("fix");
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      fcrlint::fix::FixOutcome fo =
          fcrlint::fix::apply_fixes(inputs[i].path, inputs[i].content);
      if (fo.edits == 0) continue;
      std::ofstream out(walked[i].abs, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::cerr << "fcrlint: cannot rewrite " << walked[i].abs.string()
                  << '\n';
        return 2;
      }
      out << fo.content;
      std::cout << "fcrlint: fixed " << inputs[i].path << " (" << fo.edits
                << " edit(s))\n";
      inputs[i].content = std::move(fo.content);
      ++fixed_files;
      fix_edits += fo.edits;
    }
  }

  clock.mark("cache-load");
  fcrlint::cache::ArtifactCache cache;
  if (!cache_path.empty()) cache.load(cache_path);

  clock.mark("analyze");
  std::vector<fcrlint::FileArtifacts> artifacts(inputs.size());
  std::vector<std::uint64_t> hashes(inputs.size());
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    hashes[i] = fcrlint::cache::fnv1a64(inputs[i].content);
    if (cache_path.empty()) {
      misses.push_back(i);
      continue;
    }
    const fcrlint::FileArtifacts* hit = cache.lookup(inputs[i].path, hashes[i]);
    if (hit != nullptr) {
      artifacts[i] = *hit;
    } else {
      misses.push_back(i);
    }
  }
  auto analyze_one = [&](std::size_t k) {
    const std::size_t i = misses[k];
    artifacts[i] =
        fcrlint::prepare_artifacts(inputs[i].path, inputs[i].content);
  };
  if (misses.size() >= kParallelThreshold) {
    fcr::ThreadPool::global().for_each(misses.size(), analyze_one);
  } else {
    for (std::size_t k = 0; k < misses.size(); ++k) analyze_one(k);
  }

  clock.mark("graph");
  std::vector<fcrlint::Finding> findings = fcrlint::finalize_tree(artifacts);

  clock.mark("cache-save");
  if (!cache_path.empty()) {
    for (const std::size_t i : misses) {
      cache.store(inputs[i].path, hashes[i], artifacts[i]);
    }
    std::set<std::string> present;
    for (const fcrlint::FileInput& in : inputs) present.insert(in.path);
    cache.prune([&](const std::string& p) { return present.count(p) != 0; });
    if (!cache.save(cache_path)) {
      std::cerr << "fcrlint: warning: could not write cache " << cache_path
                << '\n';
    }
  }

  clock.mark("diff");
  if (!diff_base.empty() || !diff_file.empty()) {
    std::string diff;
    if (!diff_base.empty()) {
      if (!git_diff(root, diff_base, diff)) return 2;
    } else if (diff_file == "-") {
      std::ostringstream os;
      os << std::cin.rdbuf();
      diff = os.str();
    } else {
      const fs::path df = diff_file;
      if (!fs::exists(df)) {
        std::cerr << "fcrlint: no such diff file: " << diff_file << '\n';
        return 2;
      }
      diff = read_file(df);
    }
    findings =
        fcrlint::filter_to_changed(findings, fcrlint::parse_unified_diff(diff));
  }

  clock.mark("sarif");
  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::cerr << "fcrlint: cannot write " << sarif_path << '\n';
      return 2;
    }
    out << fcrlint::to_sarif(findings);
  }
  clock.finish();

  const fcrlint::cache::CacheStats& cs = cache.stats();
  if (timings) {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(2);
    os << "fcrlint timings:";
    for (const auto& [phase, ms] : clock.phases()) {
      os << ' ' << phase << '=' << ms << "ms";
    }
    os << " total=" << clock.total() << "ms";
    if (!cache_path.empty()) {
      os << " cache-hits=" << cs.hits << " cache-misses=" << cs.misses;
    }
    std::cout << os.str() << '\n';
  }
  if (!stats_path.empty()) {
    std::ofstream out(stats_path, std::ios::binary);
    if (!out) {
      std::cerr << "fcrlint: cannot write " << stats_path << '\n';
      return 2;
    }
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\n  \"files\": " << inputs.size()
        << ",\n  \"findings\": " << findings.size()
        << ",\n  \"cache_hits\": " << cs.hits
        << ",\n  \"cache_misses\": " << cs.misses << ",\n  \"cache_hit_rate\": "
        << (cs.hits + cs.misses == 0
                ? 0.0
                : static_cast<double>(cs.hits) /
                      static_cast<double>(cs.hits + cs.misses))
        << ",\n  \"fixed_files\": " << fixed_files
        << ",\n  \"fix_edits\": " << fix_edits << ",\n  \"phases_ms\": {";
    bool first = true;
    for (const auto& [phase, ms] : clock.phases()) {
      out << (first ? "" : ", ") << '"' << phase << "\": " << ms;
      first = false;
    }
    out << "},\n  \"total_ms\": " << clock.total() << "\n}\n";
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
