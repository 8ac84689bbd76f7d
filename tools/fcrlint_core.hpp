// fcrlint core vocabulary — findings, the rule catalogue, and allow-
// annotation suppression parsing.
//
// Split out of fcrlint_rules.hpp in v3 so the interprocedural program model
// (fcrlint_model.hpp) and the per-file rule engine (fcrlint_rules.hpp) can
// share these types without a dependency cycle:
//
//   fcrlint_lexer.hpp     tokens
//   fcrlint_core.hpp      Finding / FileInput / kRules / Allow   (this file)
//   fcrlint_cfg.hpp       per-function control-flow graphs
//   fcrlint_dataflow.hpp  forward worklist solver over those graphs
//   fcrlint_model.hpp     cross-TU program model + interprocedural rules
//   fcrlint_rules.hpp     per-file rules + lint_file/lint_tree drivers
//   fcrlint_sarif.hpp     SARIF 2.1.0 serialization of the findings
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "fcrlint_lexer.hpp"

namespace fcrlint {

struct Finding {
  std::string file;
  int line = 1;
  std::string rule;
  std::string message;

  friend bool operator==(const Finding&, const Finding&) = default;
};

/// One file handed to the engine: repo-relative path with '/' separators
/// (e.g. "src/sinr/channel.cpp") plus its full contents.
struct FileInput {
  std::string path;
  std::string content;
};

/// Rule catalogue: ids plus the one-line summaries used by --list-rules and
/// the SARIF rules array.
struct RuleMeta {
  std::string_view id;
  std::string_view summary;
};

inline constexpr std::array<RuleMeta, 16> kRules = {{
    {"determinism",
     "entropy and wall-clock sources are banned in src/ (outside "
     "src/util/rng.*); all randomness flows through the seeded fcr::Rng"},
    {"sinr-float",
     "float is banned under src/sinr/: single-precision rounding flips "
     "feasibility verdicts near the decodability threshold beta"},
    {"ensure-arg",
     "every public-API .cpp in src/ validates arguments with FCR_ENSURE_ARG "
     "or carries a reasoned allow annotation"},
    {"pragma-once", "every header carries #pragma once"},
    {"include-hygiene",
     "no parent-relative (\"../\") includes, no <bits/...>, no deprecated C "
     "headers (<math.h> -> <cmath>)"},
    {"allow-syntax",
     "FCRLINT_ALLOW annotations must name a known rule and give a non-empty "
     "reason"},
    {"layering",
     "src/ includes must respect the layer order util -> stats -> geom -> "
     "radio -> deploy -> sinr -> sim -> core -> lowerbound -> algorithms -> "
     "ext -> fabric, with no upward edges and no include cycles"},
    {"fp-accumulate",
     "floating-point reductions in src/sinr/ and src/sim/ must use "
     "fcr::pairwise_sum (src/sinr/accumulate.hpp), not std::accumulate or "
     "raw += loops, to keep serial/batch results bit-identical"},
    {"lock-discipline",
     "concurrency primitives in src/ use the thread-safety-annotated "
     "fcr::Mutex / fcr::CondVar / fcr::MutexLock "
     "(util/thread_annotations.hpp), and every fcr::Mutex is referenced by "
     "an annotation"},
    {"rng-flow",
     "fcr::Rng streams must not be copied out of references (use split()) "
     "or captured by value in lambdas; both duplicate randomness and break "
     "replay"},
    {"workspace-reset",
     "member containers of src/sim/workspace.* that are appended to must "
     "also be reset (clear/assign/resize) somewhere in the same file — the "
     "workspace is reused across executions, so an append-only member "
     "leaks one run's state into the next"},
    {"error-discipline",
     "catch handlers in src/ must rethrow, wrap into fcr::Error, or record "
     "a TrialFailure — a silently swallowed exception erases a faulted "
     "trial's provenance"},
    {"rng-lineage",
     "interprocedural: every Rng constructed inside the execution closure "
     "must derive from a split() chain; ambient or default-seeded streams "
     "and seed roots inside the hot closure break trial replay"},
    {"hot-path-alloc",
     "interprocedural: functions reachable from ExecutionWorkspace::"
     "run_rounds or run_rounds_columnar (the steady-state round loops) "
     "must not allocate — no new, make_unique/make_shared, sized local "
     "containers, or growth of never-reserved containers"},
    {"error-provenance",
     "interprocedural: throw sites reachable from ThreadPool task bodies "
     "(for_each callers) must construct fcr::Error, not bare std:: "
     "exceptions, so faults keep their trial provenance"},
    {"definite-init",
     "dataflow: a container subscripted or back()/front()/at()-read in a "
     "function that sizes it (resize/assign/reserve) on only SOME CFG "
     "paths to the read — cold paths reading never-initialized columns"},
}};

inline bool is_known_rule(std::string_view rule) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleMeta& r) { return r.id == rule; });
}

namespace detail {

inline bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

inline bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Finds the matching closer for the opener at `open` (which must hold the
/// `open_text` punct). Returns npos if unbalanced.
inline std::size_t match_forward(const std::vector<Token>& toks,
                                 std::size_t open, std::string_view open_text,
                                 std::string_view close_text) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].punct(open_text)) ++depth;
    else if (toks[i].punct(close_text) && --depth == 0) return i;
  }
  return npos;
}

/// Finds the matching opener for the closer at `close`. Returns npos if
/// unbalanced.
inline std::size_t match_backward(const std::vector<Token>& toks,
                                  std::size_t close, std::string_view open_text,
                                  std::string_view close_text) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (toks[i].punct(close_text)) ++depth;
    else if (toks[i].punct(open_text) && --depth == 0) return i;
  }
  return npos;
}

}  // namespace detail

/// A parsed allow annotation (rule suppression with a documented reason).
struct Allow {
  int line = 1;
  std::string rule;
  std::string reason;
};

/// Extracts all allow annotations from the comment tokens; malformed ones
/// (unknown rule, missing reason) become allow-syntax findings. Markers in
/// string literals never reach this function — strings are distinct tokens.
inline std::vector<Allow> parse_allows(const std::vector<Token>& toks,
                                       const std::string& file,
                                       std::vector<Finding>& out) {
  static constexpr std::string_view kMarker = "FCRLINT_ALLOW";
  std::vector<Allow> allows;
  for (const Token& tok : toks) {
    if (!tok.comment()) continue;
    const std::string_view text = tok.text;
    for (std::size_t pos = text.find(kMarker); pos != std::string_view::npos;
         pos = text.find(kMarker, pos + kMarker.size())) {
      const int line =
          tok.line + static_cast<int>(
                         std::count(text.begin(),
                                    text.begin() + static_cast<std::ptrdiff_t>(pos),
                                    '\n'));
      std::size_t i = pos + kMarker.size();
      auto bad = [&](const std::string& why) {
        out.push_back({file, line, "allow-syntax",
                       "malformed FCRLINT_ALLOW annotation: " + why +
                           " — expected FCRLINT_ALLOW(<rule>): <reason>"});
      };
      if (i >= text.size() || text[i] != '(') {
        bad("missing '(<rule>)'");
        continue;
      }
      const std::size_t close = text.find(')', i);
      const std::size_t eol = text.find('\n', i);
      if (close == std::string_view::npos ||
          (eol != std::string_view::npos && close > eol)) {
        bad("missing ')'");
        continue;
      }
      const std::string rule(text.substr(i + 1, close - i - 1));
      if (!is_known_rule(rule)) {
        bad("unknown rule '" + rule + "'");
        continue;
      }
      i = close + 1;
      while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
      if (i >= text.size() || text[i] != ':') {
        bad("missing ': <reason>'");
        continue;
      }
      ++i;
      std::size_t end = text.find('\n', i);
      if (end == std::string_view::npos) end = text.size();
      std::string reason(text.substr(i, end - i));
      // A one-line block comment runs the reason into the closing marker;
      // strip the trailing */ so block-comment annotations parse cleanly.
      if (tok.kind == TokKind::kBlockComment) {
        const std::size_t trail = reason.rfind("*/");
        if (trail != std::string::npos) reason.erase(trail);
      }
      const std::size_t first = reason.find_first_not_of(" \t");
      const std::size_t last = reason.find_last_not_of(" \t\r");
      reason = first == std::string::npos
                   ? std::string{}
                   : reason.substr(first, last - first + 1);
      if (reason.empty()) {
        bad("empty reason");
        continue;
      }
      allows.push_back({line, rule, reason});
    }
  }
  return allows;
}

inline bool allowed_on_line(const std::vector<Allow>& allows,
                            std::string_view rule, int line) {
  return std::any_of(allows.begin(), allows.end(), [&](const Allow& a) {
    return a.rule == rule && (a.line == line || a.line == line - 1);
  });
}

inline bool allowed_anywhere(const std::vector<Allow>& allows,
                             std::string_view rule) {
  return std::any_of(allows.begin(), allows.end(),
                     [&](const Allow& a) { return a.rule == rule; });
}

/// --explain payload: why the rule exists, the smallest program it fires
/// on, and the sanctioned suppression form (always an allow annotation
/// with a reasoned justification on the finding line or the line above).
struct RuleExplanation {
  std::string_view rationale;
  std::string_view example;
  std::string_view allow;
};

/// Returns the explanation for `rule`, or nullptr for unknown ids. The
/// catalogue and this table are kept in lockstep (asserted by the CLI
/// test); the summaries in kRules stay the one-line form.
inline const RuleExplanation* explain_rule(std::string_view rule) {
  struct Entry {
    std::string_view id;
    RuleExplanation ex;
  };
  static constexpr std::array<Entry, 16> kTable = {{
      {"determinism",
       {"Reproducibility is the repo's core contract: every trial must "
        "replay bit-identically from its seed. Ambient entropy "
        "(std::random_device, time(), chrono clocks) silently forks runs.",
        "  auto seed = std::chrono::steady_clock::now();  // wall clock",
        "// FCRLINT_ALLOW(determinism): <why this wall-clock read cannot "
        "affect simulation results>"}},
      {"sinr-float",
       {"Feasibility verdicts compare SINR against the threshold beta; "
        "float's 24-bit mantissa flips verdicts near the boundary, and a "
        "flipped bit invalidates a whole campaign.",
        "  float sinr = signal / interference;  // in src/sinr/",
        "// FCRLINT_ALLOW(sinr-float): <why single precision is safe here>"}},
      {"ensure-arg",
       {"Public entry points validate inputs with FCR_ENSURE_ARG so a bad "
        "config fails loudly with provenance instead of corrupting a sweep.",
        "  RunResult run(Config c) { return run_impl(c); }  // no check",
        "// FCRLINT_ALLOW(ensure-arg): <why this TU has no checkable "
        "public arguments>"}},
      {"pragma-once",
       {"Headers without an include guard break unity and module builds "
        "the moment two TUs disagree.",
        "  // header file with no #pragma once",
        "// FCRLINT_ALLOW(pragma-once): <why this header is special>"}},
      {"include-hygiene",
       {"Parent-relative includes bypass the layer map, <bits/...> is not "
        "portable, and C headers pollute the global namespace.",
        "  #include \"../sim/engine.hpp\"",
        "// FCRLINT_ALLOW(include-hygiene): <why this include is needed>"}},
      {"allow-syntax",
       {"A suppression without a known rule and a reason is a silent hole: "
        "nobody can audit why the finding was waived.",
        "  // FCRLINT_ALLOW(made-up-rule)",
        "(not suppressible — fix the annotation instead)"}},
      {"layering",
       {"The dependency order util -> stats -> geom -> radio -> deploy -> "
        "sinr -> sim -> core -> lowerbound -> algorithms -> ext -> fabric "
        "keeps the simulator buildable in slices; upward edges and cycles "
        "rot first.",
        "  // in src/util/: #include \"sim/engine.hpp\"  (upward edge)",
        "// FCRLINT_ALLOW(layering): <why this edge is sound>"}},
      {"fp-accumulate",
       {"Serial and batched resolvers must produce bit-identical sums; "
        "fcr::pairwise_sum fixes the reduction tree, raw += makes the "
        "result depend on iteration order.",
        "  double s = 0; for (double x : xs) s += x;  // in src/sinr/",
        "// FCRLINT_ALLOW(fp-accumulate): <why this reduction is "
        "order-insensitive or deliberately approximate>"}},
      {"lock-discipline",
       {"Only the annotated fcr::Mutex family participates in Clang "
        "thread-safety analysis; a raw std::mutex, or an fcr::Mutex no "
        "annotation names, is invisible to its proof.",
        "  std::mutex m_;  // in src/",
        "// FCRLINT_ALLOW(lock-discipline): <why a raw primitive is "
        "required here>"}},
      {"rng-flow",
       {"Copying an Rng duplicates its stream: two consumers draw the same "
        "values, and replay diverges from production. Streams move through "
        "references or split().",
        "  Rng copy = *rng_ptr;  // copies the stream state",
        "// FCRLINT_ALLOW(rng-flow): <why this copy cannot duplicate "
        "draws>"}},
      {"workspace-reset",
       {"ExecutionWorkspace is reused across executions; a member appended "
        "to but never cleared/assigned/resized leaks one run's state into "
        "the next.",
        "  ids_.push_back(id);  // and no ids_.clear() in the file",
        "// FCRLINT_ALLOW(workspace-reset): <why this member survives "
        "across runs by design>"}},
      {"error-discipline",
       {"A swallowed exception erases the faulted trial's provenance; the "
        "campaign layer can only quarantine what it can attribute.",
        "  try { run(); } catch (const std::exception&) { /* ignore */ }",
        "// FCRLINT_ALLOW(error-discipline): <why swallowing is safe "
        "here>"}},
      {"rng-lineage",
       {"Inside the execution closure every stream must come from the "
        "trial's seeded base via split(<tag>); a re-rooted or "
        "default-seeded Rng silently forks replay.",
        "  Rng r(12345);  // inside run_execution's call graph",
        "// FCRLINT_ALLOW(rng-lineage): <why this root cannot affect "
        "trial replay>"}},
      {"hot-path-alloc",
       {"The steady-state round loops are proven zero-alloc (global "
        "new/delete counters); any allocation reachable from them breaks "
        "the proof and the latency budget.",
        "  buf.push_back(x);  // buf never reserve()d, inside run_rounds",
        "// FCRLINT_ALLOW(hot-path-alloc): <why this allocation is "
        "setup-only or amortized>"}},
      {"error-provenance",
       {"Throws escaping a ThreadPool task must be fcr::Error so the "
        "campaign's failure report can attribute the trial; bare std:: "
        "exceptions lose the seed and config hash.",
        "  throw std::runtime_error(\"bad\");  // inside a for_each body",
        "// FCRLINT_ALLOW(error-provenance): <why provenance is preserved "
        "anyway>"}},
      {"definite-init",
       {"A container sized on only some CFG paths before a subscript read "
        "is a cold-path crash: the untested branch indexes an empty "
        "column. The must-init dataflow proves sizing dominates every "
        "read.",
        "  std::vector<int> col;\n"
        "  if (warm) col.resize(n);\n"
        "  col[0] = 1;  // cold path reads an empty vector",
        "// FCRLINT_ALLOW(definite-init): <the invariant that makes the "
        "unsized path unreachable>"}},
  }};
  for (const Entry& e : kTable) {
    if (e.id == rule) return &e.ex;
  }
  return nullptr;
}

}  // namespace fcrlint
