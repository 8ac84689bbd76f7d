// fcrlint — fadingcr's project-specific linter: the per-file token rules.
//
// Generic static analyzers cannot enforce the invariants this repository's
// headline claims rest on (bit-identical serial/parallel results, exact SINR
// decision bits), so fcrlint checks them mechanically. Every rule runs on
// the real C++ token stream from fcrlint_lexer.hpp — no substring matching
// against masked text. The per-file analyses are:
//
//   determinism      — wall-clock and platform entropy sources (std::rand,
//                      std::random_device, time(), *_clock::now(), ...) are
//                      banned in src/ outside src/util/rng.*; all randomness
//                      must flow through fcr::Rng so runs replay from a seed.
//   sinr-float       — `float` is banned under src/sinr/: SINR feasibility
//                      margins sit near the decodability threshold beta and
//                      single-precision rounding flips verdicts.
//   ensure-arg       — every public-API .cpp in src/ must validate arguments
//                      with FCR_ENSURE_ARG or carry an explicit, reasoned
//                      allow annotation.
//   pragma-once      — every header carries #pragma once.
//   include-hygiene  — no parent-relative ("../") includes, no <bits/...>,
//                      no deprecated C headers (<math.h> → <cmath>).
//   allow-syntax     — allow annotations must name a known rule and give a
//                      non-empty reason (suppressions are documented).
//   layering         — src/ subdirectories form strict layers (util → stats
//                      → geom → radio → deploy → sinr → sim → core →
//                      lowerbound → algorithms → ext → fabric); an include
//                      may only point at the same or a lower layer, and the
//                      include graph must stay acyclic (checked tree-wide).
//   fp-accumulate    — floating-point reductions in src/sinr/ and src/sim/
//                      (std::accumulate/reduce, raw `+=` loops over doubles)
//                      are banned outside src/sinr/accumulate.hpp: every
//                      interference sum must go through the shared pairwise
//                      tree that keeps resolve/batch bit-identical.
//   lock-discipline  — bare std::mutex / std::condition_variable are banned
//                      in src/; concurrency code uses the Clang-thread-
//                      safety-annotated fcr::Mutex / fcr::CondVar /
//                      fcr::MutexLock from util/thread_annotations.hpp, and
//                      every fcr::Mutex must be referenced by at least one
//                      annotation (FCR_GUARDED_BY, FCR_REQUIRES, ...).
//   rng-flow         — replay-breaking Rng plumbing: copying a stream out of
//                      an Rng reference (instead of split()) or capturing an
//                      Rng by value in a lambda duplicates the stream and
//                      silently reuses randomness.
//   error-discipline — catch blocks in src/ must not swallow exceptions
//                      silently: the handler body must rethrow, wrap into
//                      the structured fcr::Error taxonomy, or record a
//                      TrialFailure — otherwise a faulted trial vanishes
//                      without provenance.
//
// Suppression: an allow annotation in a comment naming the rule and the
// reason, e.g. FCRLINT_ALLOW(ensure-arg): header-only module, no entry point.
// For the file-scoped ensure-arg and pragma-once rules the annotation may
// appear anywhere in the file; for line-scoped rules it must sit on the
// offending line or the line directly above it. Annotations inside string
// literals are ignored (strings are opaque tokens), and every occurrence of
// the marker in a comment must be well-formed.
//
// The engine is header-only and pure (paths + contents in, findings out) so
// tests/test_fcrlint.cpp can unit-test every rule against fixture inputs;
// tools/fcrlint.cpp adds the filesystem walk, SARIF output and the CLI. The
// shared vocabulary (Finding, kRules, allows) lives in fcrlint_core.hpp; the
// interprocedural rules in fcrlint_model.hpp — lint_tree below stitches both
// halves together.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fcrlint_core.hpp"
#include "fcrlint_lexer.hpp"
#include "fcrlint_model.hpp"

namespace fcrlint {

namespace detail {

/// The strict src/ layer order, lowest first. A file in layer k may include
/// only layers <= k. Files directly under src/ (the fadingcr.hpp umbrella)
/// sit above every layer.
inline constexpr std::array<std::string_view, 12> kLayerOrder = {
    "util", "stats",      "geom",       "radio", "deploy", "sinr",
    "sim",  "core",       "lowerbound", "algorithms", "ext", "fabric"};

inline constexpr int kTopLayer = static_cast<int>(kLayerOrder.size());

/// Layer index of a src/ subdirectory name, or -1 if unknown.
inline int layer_of(std::string_view dir) {
  for (std::size_t i = 0; i < kLayerOrder.size(); ++i) {
    if (kLayerOrder[i] == dir) return static_cast<int>(i);
  }
  return -1;
}

/// Renders the layer order for messages: "util -> stats -> ... -> fabric".
inline std::string layer_order_string() {
  std::string s;
  for (const std::string_view d : kLayerOrder) {
    if (!s.empty()) s += " -> ";
    s += d;
  }
  return s;
}

/// For "src/<dir>/<rest>" returns <dir>; for files directly under src/
/// returns "". Precondition: path starts with "src/".
inline std::string_view src_subdir(std::string_view path) {
  std::string_view rest = path.substr(4);
  const std::size_t slash = rest.find('/');
  return slash == std::string_view::npos ? std::string_view{}
                                         : rest.substr(0, slash);
}

/// Deprecated C headers for include-hygiene: <x.h> is flagged, <cx> is the
/// replacement.
inline constexpr std::string_view kDeprecatedC[] = {
    "assert.h", "ctype.h",  "errno.h",  "float.h",    "inttypes.h",
    "limits.h", "locale.h", "math.h",   "setjmp.h",   "signal.h",
    "stdarg.h", "stddef.h", "stdint.h", "stdio.h",    "stdlib.h",
    "string.h", "time.h",   "wchar.h"};

}  // namespace detail

// ---------------------------------------------------------------------------
// Rules. Each takes the repo-relative path (generic '/' separators), the
// token stream, and the parsed allows; each returns its findings.
// ---------------------------------------------------------------------------

/// determinism: entropy/wall-clock sources are banned in src/ outside
/// src/util/rng.* — randomness must come from fcr::Rng (seeded, splittable).
inline std::vector<Finding> check_determinism(const std::string& path,
                                              const std::vector<Token>& toks,
                                              const std::vector<Allow>& allows) {
  std::vector<Finding> out;
  if (!detail::starts_with(path, "src/") ||
      detail::starts_with(path, "src/util/rng.")) {
    return out;
  }
  struct Banned {
    std::string_view token;
    bool must_call;  // only flag when followed by '('
    std::string_view hint;
  };
  static constexpr Banned kBanned[] = {
      {"rand", true, "use fcr::Rng instead of the C PRNG"},
      {"srand", true, "seeding the C PRNG breaks replayability"},
      {"random_device", false, "platform entropy is not reproducible"},
      {"time", true, "wall-clock input makes runs non-replayable"},
      {"clock", true, "wall-clock input makes runs non-replayable"},
      {"gettimeofday", true, "wall-clock input makes runs non-replayable"},
      {"clock_gettime", true, "wall-clock input makes runs non-replayable"},
      {"now", true, "std::chrono::*::now() makes runs non-replayable"},
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    for (const Banned& b : kBanned) {
      if (toks[i].text != b.token) continue;
      if (b.must_call) {
        const std::size_t j = next_sig(toks, i);
        if (j == npos || !toks[j].punct("(")) continue;
      }
      const int line = toks[i].line;
      if (allowed_on_line(allows, "determinism", line)) continue;
      out.push_back({path, line, "determinism",
                     "non-deterministic source '" + std::string(b.token) +
                         "' — " + std::string(b.hint) +
                         " (all randomness must flow through fcr::Rng)"});
    }
  }
  return out;
}

/// sinr-float: single-precision arithmetic is banned in SINR feasibility
/// math; margins near the beta threshold flip under float rounding.
inline std::vector<Finding> check_sinr_float(const std::string& path,
                                             const std::vector<Token>& toks,
                                             const std::vector<Allow>& allows) {
  std::vector<Finding> out;
  if (!detail::starts_with(path, "src/sinr/")) return out;
  for (const Token& t : toks) {
    if (!t.ident("float")) continue;
    if (allowed_on_line(allows, "sinr-float", t.line)) continue;
    out.push_back({path, t.line, "sinr-float",
                   "'float' in SINR math — use double; single-precision "
                   "rounding flips feasibility verdicts near beta"});
  }
  return out;
}

/// ensure-arg: public-API implementation files must validate their inputs.
inline std::vector<Finding> check_ensure_arg(const std::string& path,
                                             const std::vector<Token>& toks,
                                             const std::vector<Allow>& allows) {
  std::vector<Finding> out;
  if (!detail::starts_with(path, "src/") || !detail::ends_with(path, ".cpp")) {
    return out;
  }
  for (const Token& t : toks) {
    if (t.ident("FCR_ENSURE_ARG")) return out;
  }
  if (allowed_anywhere(allows, "ensure-arg")) return out;
  out.push_back({path, 1, "ensure-arg",
                 "no FCR_ENSURE_ARG argument validation in this public API "
                 "implementation — validate entry-point arguments or annotate "
                 "with FCRLINT_ALLOW(ensure-arg): <reason>"});
  return out;
}

/// pragma-once: every header must carry #pragma once.
inline std::vector<Finding> check_pragma_once(const std::string& path,
                                              const std::vector<Token>& toks,
                                              const std::vector<Allow>& allows) {
  std::vector<Finding> out;
  if (!detail::ends_with(path, ".hpp") && !detail::ends_with(path, ".h")) {
    return out;
  }
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].punct("#") || !toks[i].directive) continue;
    const std::size_t j = next_sig(toks, i);
    if (j == npos || !toks[j].ident("pragma")) continue;
    const std::size_t k = next_sig(toks, j);
    if (k != npos && toks[k].ident("once")) return out;  // found it
  }
  if (!allowed_anywhere(allows, "pragma-once")) {
    out.push_back({path, 1, "pragma-once", "header is missing #pragma once"});
  }
  return out;
}

/// include-hygiene: no parent-relative includes, no <bits/...>, no
/// deprecated C headers. Operates on header-name tokens, so prose about
/// <math.h> in a trailing comment can no longer trip it (a v1 blind spot).
inline std::vector<Finding> check_include_hygiene(
    const std::string& path, const std::vector<Token>& toks,
    const std::vector<Allow>& allows) {
  std::vector<Finding> out;
  for (const Token& t : toks) {
    if (t.kind != TokKind::kHeaderName) continue;
    if (allowed_on_line(allows, "include-hygiene", t.line)) continue;
    auto flag = [&](const std::string& msg) {
      out.push_back({path, t.line, "include-hygiene", msg});
    };
    const std::string_view text = t.text;
    if (text.size() >= 2 && text.front() == '"') {
      const std::string_view inner = text.substr(1, text.size() - 2);
      if (detail::starts_with(inner, "../") ||
          inner.find("/../") != std::string_view::npos) {
        flag("parent-relative include — include project headers by their "
             "src/-relative path");
      }
    }
    if (detail::starts_with(text, "<bits/")) {
      flag("<bits/...> is a libstdc++ internal — include the standard header");
    }
    for (const std::string_view dep : detail::kDeprecatedC) {
      if (text == "<" + std::string(dep) + ">") {
        flag("deprecated C header " + std::string(text) + " — use <c" +
             std::string(dep.substr(0, dep.size() - 2)) + ">");
      }
    }
  }
  return out;
}

/// layering (per-file half): an include from src/<a>/ may only name the same
/// or a lower layer. The cross-file half (cycle detection over the whole
/// include graph) lives in lint_tree.
inline std::vector<Finding> check_layering(const std::string& path,
                                           const std::vector<Token>& toks,
                                           const std::vector<Allow>& allows) {
  std::vector<Finding> out;
  if (!detail::starts_with(path, "src/")) return out;
  const std::string_view src_dir = detail::src_subdir(path);
  const int src_layer =
      src_dir.empty() ? detail::kTopLayer : detail::layer_of(src_dir);
  if (src_layer == detail::kTopLayer) return out;  // umbrella sees everything
  if (src_layer < 0) {
    out.push_back({path, 1, "layering",
                   "directory src/" + std::string(src_dir) +
                       "/ is not in the layer order (" +
                       detail::layer_order_string() +
                       ") — add it to kLayerOrder in fcrlint_rules.hpp"});
    return out;
  }
  for (const Token& t : toks) {
    if (t.kind != TokKind::kHeaderName) continue;
    const std::string_view text = t.text;
    if (text.size() < 2 || text.front() != '"') continue;  // system header
    const std::string_view inner = text.substr(1, text.size() - 2);
    if (inner.find("..") != std::string_view::npos) continue;  // hygiene's job
    std::string_view target_dir;
    int target_layer;
    const std::size_t slash = inner.find('/');
    if (slash == std::string_view::npos) {
      // A bare name is a same-directory sibling include — always fine —
      // unless it names the src-root umbrella header.
      if (inner != "fadingcr.hpp") continue;
      target_dir = "<src root>";
      target_layer = detail::kTopLayer;
    } else {
      target_dir = inner.substr(0, slash);
      target_layer = detail::layer_of(target_dir);
      if (target_layer < 0) continue;  // not a src layer (e.g. local subdir)
    }
    if (target_layer <= src_layer) continue;
    if (allowed_on_line(allows, "layering", t.line)) continue;
    out.push_back(
        {path, t.line, "layering",
         "upward include: src/" + std::string(src_dir) + "/ (layer " +
             std::to_string(src_layer) + ") must not include '" +
             std::string(inner) + "' (layer " + std::to_string(target_layer) +
             ") — the layer order is " + detail::layer_order_string()});
  }
  return out;
}

/// fp-accumulate: floating-point reductions outside the canonical pairwise
/// path are banned in src/sinr/ and src/sim/. Flags std::accumulate-family
/// calls and `fp_var += ...` inside loop bodies (the running-sum pattern
/// whose result depends on evaluation order).
inline std::vector<Finding> check_fp_accumulate(
    const std::string& path, const std::vector<Token>& toks,
    const std::vector<Allow>& allows) {
  std::vector<Finding> out;
  const bool in_scope = (detail::starts_with(path, "src/sinr/") ||
                         detail::starts_with(path, "src/sim/")) &&
                        path != "src/sinr/accumulate.hpp";
  if (!in_scope) return out;

  // Pass 1: names declared with a floating-point type in this file
  // (`double s`, `float acc[4]`, range-for `double v : xs`, parameters,
  // and further same-type declarators: `double sx = 0.0, sy = 0.0;`).
  std::set<std::string, std::less<>> fp_vars;
  auto is_decl_end = [](const Token& t) {
    static constexpr std::string_view kDeclEnd[] = {";", "=", ",", ")",
                                                    "[", "{", ":"};
    for (const std::string_view e : kDeclEnd) {
      if (t.punct(e)) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident("double") && !toks[i].ident("float")) continue;
    const std::size_t j = next_sig(toks, i);
    if (j == npos || toks[j].kind != TokKind::kIdent) continue;
    const std::size_t k = next_sig(toks, j);
    if (k == npos || !is_decl_end(toks[k])) continue;
    fp_vars.insert(toks[j].text);
    // Walk the rest of the declaration for `, next_name` declarators; a
    // candidate followed by another identifier means a differently-typed
    // parameter (`double a, int n`) and ends the walk.
    int depth = 0;
    for (std::size_t m = k; m < toks.size(); ++m) {
      const Token& t = toks[m];
      if (t.punct("(") || t.punct("[") || t.punct("{")) ++depth;
      else if (t.punct(")") || t.punct("]") || t.punct("}")) {
        if (--depth < 0) break;  // end of enclosing parameter list
      } else if (t.punct(";") && depth == 0) {
        break;
      } else if (t.punct(",") && depth == 0) {
        const std::size_t name = next_sig(toks, m);
        if (name == npos || toks[name].kind != TokKind::kIdent) break;
        const std::size_t after = next_sig(toks, name);
        if (after == npos || !is_decl_end(toks[after])) break;
        fp_vars.insert(toks[name].text);
      }
    }
  }

  // Pass 2: std accumulate-family calls (order- or precision-unsafe).
  static constexpr std::string_view kReducers[] = {
      "accumulate", "reduce", "transform_reduce", "inner_product"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    for (const std::string_view r : kReducers) {
      if (toks[i].text != r) continue;
      const std::size_t j = next_sig(toks, i);
      if (j == npos || !toks[j].punct("(")) continue;
      if (allowed_on_line(allows, "fp-accumulate", toks[i].line)) continue;
      out.push_back({path, toks[i].line, "fp-accumulate",
                     "'std::" + std::string(r) +
                         "' in SINR/simulation code — sum through "
                         "fcr::pairwise_sum (src/sinr/accumulate.hpp) so the "
                         "reduction tree stays fixed and bit-identical"});
    }
  }

  // Pass 3: loop-body regions, as [first, last] token-index intervals.
  std::vector<std::pair<std::size_t, std::size_t>> loops;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident("for") && !toks[i].ident("while") &&
        !toks[i].ident("do")) {
      continue;
    }
    std::size_t body_start;
    if (toks[i].ident("do")) {
      body_start = next_sig(toks, i);
    } else {
      const std::size_t open = next_sig(toks, i);
      if (open == npos || !toks[open].punct("(")) continue;
      const std::size_t close = detail::match_forward(toks, open, "(", ")");
      if (close == npos) continue;
      body_start = next_sig(toks, close);
    }
    if (body_start == npos) continue;
    std::size_t body_end;
    if (toks[body_start].punct("{")) {
      body_end = detail::match_forward(toks, body_start, "{", "}");
    } else {
      // Single-statement body: up to the terminating ';' at paren depth 0.
      int paren = 0;
      body_end = npos;
      for (std::size_t j = body_start; j < toks.size(); ++j) {
        if (toks[j].punct("(")) ++paren;
        else if (toks[j].punct(")")) --paren;
        else if (toks[j].punct(";") && paren == 0) {
          body_end = j;
          break;
        }
      }
    }
    if (body_end == npos) continue;
    loops.emplace_back(body_start, body_end);
  }

  // Pass 4: `fp_var += ...` (optionally through a [subscript]) in a loop.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].punct("+=")) continue;
    const bool in_loop =
        std::any_of(loops.begin(), loops.end(), [&](const auto& r) {
          return r.first <= i && i <= r.second;
        });
    if (!in_loop) continue;
    std::size_t lhs = prev_sig(toks, i);
    if (lhs != npos && toks[lhs].punct("]")) {
      const std::size_t open = detail::match_backward(toks, lhs, "[", "]");
      if (open == npos) continue;
      lhs = prev_sig(toks, open);
    }
    if (lhs == npos || toks[lhs].kind != TokKind::kIdent) continue;
    if (fp_vars.find(toks[lhs].text) == fp_vars.end()) continue;
    if (allowed_on_line(allows, "fp-accumulate", toks[i].line)) continue;
    out.push_back({path, toks[i].line, "fp-accumulate",
                   "raw floating-point reduction '" + toks[lhs].text +
                       " += ...' in a loop — route the sum through "
                       "fcr::pairwise_sum (src/sinr/accumulate.hpp) to keep "
                       "serial/parallel results bit-identical"});
  }
  return out;
}

/// lock-discipline: concurrency primitives in src/ must be the annotated
/// fcr:: wrappers, and every fcr::Mutex must take part in at least one
/// thread-safety annotation so Clang's analysis has something to check.
inline std::vector<Finding> check_lock_discipline(
    const std::string& path, const std::vector<Token>& toks,
    const std::vector<Allow>& allows) {
  std::vector<Finding> out;
  if (!detail::starts_with(path, "src/")) return out;

  static constexpr std::string_view kStdSync[] = {
      "mutex",        "timed_mutex",        "recursive_mutex",
      "shared_mutex", "condition_variable", "condition_variable_any"};
  static constexpr std::string_view kAnnotationMacros[] = {
      "FCR_GUARDED_BY",      "FCR_PT_GUARDED_BY", "FCR_REQUIRES",
      "FCR_ACQUIRE",         "FCR_RELEASE",       "FCR_EXCLUDES",
      "FCR_ACQUIRED_BEFORE", "FCR_ACQUIRED_AFTER"};

  // Bare std:: primitives declared as variables/members.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    bool is_sync = false;
    for (const std::string_view s : kStdSync) {
      if (toks[i].text == s) {
        is_sync = true;
        break;
      }
    }
    if (!is_sync) continue;
    const std::size_t colons = prev_sig(toks, i);
    if (colons == npos || !toks[colons].punct("::")) continue;
    const std::size_t ns = prev_sig(toks, colons);
    if (ns == npos || !toks[ns].ident("std")) continue;
    const std::size_t name = next_sig(toks, i);
    if (name == npos || toks[name].kind != TokKind::kIdent) continue;
    const std::size_t after = next_sig(toks, name);
    if (after == npos || (!toks[after].punct(";") && !toks[after].punct("{") &&
                          !toks[after].punct("="))) {
      continue;
    }
    if (allowed_on_line(allows, "lock-discipline", toks[i].line)) continue;
    out.push_back({path, toks[i].line, "lock-discipline",
                   "bare std::" + toks[i].text + " '" + toks[name].text +
                       "' — use fcr::Mutex / fcr::CondVar / fcr::MutexLock "
                       "from util/thread_annotations.hpp so Clang thread-"
                       "safety analysis sees the capability"});
  }

  // fcr::Mutex declarations that no annotation references.
  std::set<std::string, std::less<>> annotated;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    bool is_macro = false;
    for (const std::string_view m : kAnnotationMacros) {
      if (toks[i].text == m) {
        is_macro = true;
        break;
      }
    }
    if (!is_macro) continue;
    const std::size_t open = next_sig(toks, i);
    if (open == npos || !toks[open].punct("(")) continue;
    const std::size_t close = detail::match_forward(toks, open, "(", ")");
    if (close == npos) continue;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (toks[j].kind == TokKind::kIdent) annotated.insert(toks[j].text);
    }
  }
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident("Mutex")) continue;
    const std::size_t name = next_sig(toks, i);
    if (name == npos || toks[name].kind != TokKind::kIdent) continue;
    const std::size_t after = next_sig(toks, name);
    if (after == npos || (!toks[after].punct(";") && !toks[after].punct("{") &&
                          !toks[after].punct("="))) {
      continue;
    }
    if (annotated.count(toks[name].text) != 0) continue;
    if (allowed_on_line(allows, "lock-discipline", toks[i].line)) continue;
    out.push_back({path, toks[i].line, "lock-discipline",
                   "fcr::Mutex '" + toks[name].text +
                       "' is never referenced by a thread-safety annotation — "
                       "guard its data with FCR_GUARDED_BY(" + toks[name].text +
                       ") (or FCR_REQUIRES/FCR_ACQUIRE on the functions that "
                       "lock it)"});
  }
  return out;
}

/// rng-flow: flags the two replay-breaking Rng plumbing patterns that type
/// checking cannot catch — copying a stream out of a shared reference
/// (instead of split()) and capturing an Rng by value in a lambda.
inline std::vector<Finding> check_rng_flow(const std::string& path,
                                           const std::vector<Token>& toks,
                                           const std::vector<Allow>& allows) {
  std::vector<Finding> out;
  if (!detail::starts_with(path, "src/") ||
      detail::starts_with(path, "src/util/rng.")) {
    return out;
  }

  // Collect Rng-typed names: values (`Rng x`, `const Rng x = ...`) and
  // references (`Rng& rng`, `const Rng& rng`). Function names declared as
  // returning Rng can be over-collected; they cannot appear in the flagged
  // positions, so the noise is harmless.
  std::set<std::string, std::less<>> value_vars;
  std::set<std::string, std::less<>> ref_vars;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident("Rng")) continue;
    std::size_t j = next_sig(toks, i);
    if (j == npos) continue;
    bool is_ref = false;
    if (toks[j].punct("&")) {
      is_ref = true;
      j = next_sig(toks, j);
      if (j == npos) continue;
    }
    if (toks[j].kind != TokKind::kIdent) continue;
    const std::size_t after = next_sig(toks, j);
    if (after == npos) continue;
    static constexpr std::string_view kDeclEnd[] = {";", "=", ",",
                                                    ")", "{", "("};
    for (const std::string_view e : kDeclEnd) {
      if (!toks[after].punct(e)) continue;
      (is_ref ? ref_vars : value_vars).insert(toks[j].text);
      break;
    }
  }

  // Pattern 1: `<target> = <ref-var>;` or `Rng x(<ref-var>);` — a stream
  // copied out of a shared reference. The fix is .split(<tag>).
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        ref_vars.find(toks[i].text) == ref_vars.end()) {
      continue;
    }
    const std::size_t after = next_sig(toks, i);
    const std::size_t before = prev_sig(toks, i);
    if (after == npos || before == npos) continue;
    bool copies = false;
    if (toks[before].punct("=") && toks[after].punct(";")) {
      // `target = rng;` — but `auto& r = rng;` / `Rng& r = rng;` only bind
      // a reference; skip when the target is declared as a reference.
      const std::size_t target = prev_sig(toks, before);
      if (target != npos && toks[target].kind == TokKind::kIdent) {
        const std::size_t amp = prev_sig(toks, target);
        copies = amp == npos || !toks[amp].punct("&");
      }
    } else if (toks[before].punct("(") && toks[after].punct(")")) {
      // `Rng x(rng);` — copy-construction from the shared reference. Bare
      // calls `f(rng)` pass by reference and stay legal, so require the
      // Rng-typed declaration shape.
      const std::size_t name = prev_sig(toks, before);
      if (name != npos && toks[name].kind == TokKind::kIdent) {
        const std::size_t type = prev_sig(toks, name);
        copies = type != npos && toks[type].ident("Rng");
      }
    }
    if (!copies) continue;
    if (allowed_on_line(allows, "rng-flow", toks[i].line)) continue;
    out.push_back({path, toks[i].line, "rng-flow",
                   "copying the shared Rng reference '" + toks[i].text +
                       "' duplicates its stream — derive an independent "
                       "child with " + toks[i].text + ".split(<tag>)"});
  }

  // Pattern 2: an Rng-typed variable captured by value in a lambda.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].punct("[")) continue;
    const std::size_t before = prev_sig(toks, i);
    if (before != npos) {
      const Token& p = toks[before];
      const bool postfix = p.kind == TokKind::kIdent || p.punct("]") ||
                           p.punct(")") || p.kind == TokKind::kNumber ||
                           p.kind == TokKind::kString;
      const bool keyword = p.ident("return") || p.ident("co_return") ||
                           p.ident("co_yield") || p.ident("case");
      if ((postfix && !keyword) || p.punct("[")) continue;  // subscript/attr
    }
    const std::size_t close = detail::match_forward(toks, i, "[", "]");
    if (close == npos) continue;
    const std::size_t first = next_sig(toks, i);
    if (first != npos && toks[first].punct("[")) continue;  // [[attribute]]
    // Split the capture list on top-level commas.
    std::size_t item_start = i + 1;
    int depth = 0;
    for (std::size_t j = i + 1; j <= close; ++j) {
      const Token& t = toks[j];
      if (t.punct("(") || t.punct("[") || t.punct("{")) ++depth;
      else if (t.punct(")") || t.punct("]") || t.punct("}")) {
        if (j != close) --depth;
      }
      if (j != close && !(t.punct(",") && depth == 0)) continue;
      // Item is toks[item_start, j). A leading '&' makes the whole item a
      // by-reference capture; otherwise flag an Rng-typed name that IS the
      // captured value — i.e. the item's last token, covering both the
      // plain capture [rng] and the bare init-capture copy [r = rng].
      // [r = rng.split(k)] captures a fresh child, so an Rng name followed
      // by more expression stays legal.
      const std::size_t lead = next_sig(toks, item_start - 1);
      const bool by_ref = lead != npos && lead < j && toks[lead].punct("&");
      for (std::size_t k = item_start; !by_ref && k < j; ++k) {
        if (toks[k].kind != TokKind::kIdent ||
            (value_vars.find(toks[k].text) == value_vars.end() &&
             ref_vars.find(toks[k].text) == ref_vars.end())) {
          continue;
        }
        if (next_sig(toks, k) != j) continue;  // not the captured value
        if (!allowed_on_line(allows, "rng-flow", toks[k].line)) {
          out.push_back(
              {path, toks[k].line, "rng-flow",
               "Rng '" + toks[k].text +
                   "' captured by value in a lambda — the frozen copy "
                   "replays identical randomness on every call; capture by "
                   "reference or init-capture a child via " + toks[k].text +
                   ".split(<tag>)"});
        }
        break;
      }
      item_start = j + 1;
    }
  }
  return out;
}

/// error-discipline: a catch handler in src/ must do SOMETHING visible with
/// the exception — rethrow it (bare or wrapped), convert it into the
/// structured fcr::Error taxonomy, record a TrialFailure, or stash it via
/// std::current_exception for later rethrow. A handler whose body mentions
/// none of these swallows the fault: the trial vanishes and the campaign's
/// failure report lies by omission. Deliberate best-effort handlers (e.g.
/// cleanup paths where failure is acceptable) take a line-scoped
/// FCRLINT_ALLOW(error-discipline): <reason>.
inline std::vector<Finding> check_error_discipline(
    const std::string& path, const std::vector<Token>& toks,
    const std::vector<Allow>& allows) {
  std::vector<Finding> out;
  if (!detail::starts_with(path, "src/")) return out;
  static constexpr std::string_view kHandled[] = {
      "throw",           "Error",
      "TrialFailure",    "current_exception",
      "rethrow_exception", "FCR_CHECK",
      "FCR_CHECK_MSG",   "FCR_ENSURE_ARG"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].ident("catch")) continue;
    const std::size_t open = next_sig(toks, i);
    if (open == npos || !toks[open].punct("(")) continue;
    const std::size_t close = detail::match_forward(toks, open, "(", ")");
    if (close == npos) continue;
    const std::size_t body = next_sig(toks, close);
    if (body == npos || !toks[body].punct("{")) continue;
    const std::size_t end = detail::match_forward(toks, body, "{", "}");
    if (end == npos) continue;
    bool handled = false;
    for (std::size_t j = body + 1; j < end && !handled; ++j) {
      if (toks[j].kind != TokKind::kIdent) continue;
      for (const std::string_view h : kHandled) {
        if (toks[j].text == h) {
          handled = true;
          break;
        }
      }
    }
    if (handled) continue;
    const int line = toks[i].line;
    if (allowed_on_line(allows, "error-discipline", line)) continue;
    out.push_back({path, line, "error-discipline",
                   "catch handler swallows the exception — rethrow, wrap it "
                   "into fcr::Error, or record a TrialFailure so the fault "
                   "keeps its provenance (suppress a deliberate best-effort "
                   "handler with FCRLINT_ALLOW(error-discipline): <reason>)"});
  }
  return out;
}

/// workspace-reset: the ExecutionWorkspace survives across executions, so
/// every MEMBER container (trailing-underscore names, per the style guide)
/// that gets appended to must be reset — clear()/assign()/resize() — some-
/// where in the same file. An append-only member would carry one run's
/// contents into the next and surface as a nondeterministic extra-node bug.
/// Locals and parameters (no trailing underscore) are out of scope: they
/// are born empty. Suppress a deliberate accumulator with
/// FCRLINT_ALLOW(workspace-reset): <reason>.
inline std::vector<Finding> check_workspace_reset(
    const std::string& path, const std::vector<Token>& toks,
    const std::vector<Allow>& allows) {
  std::vector<Finding> out;
  if (path.find("src/sim/workspace.") == std::string::npos) return out;

  struct Append {
    std::string name;
    int line;
  };
  std::vector<Append> appends;
  std::set<std::string, std::less<>> resets;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].punct(".")) continue;
    const std::size_t obj = prev_sig(toks, i);
    const std::size_t method = next_sig(toks, i);
    if (obj == npos || method == npos) continue;
    if (toks[obj].kind != TokKind::kIdent ||
        toks[method].kind != TokKind::kIdent) {
      continue;
    }
    if (toks[obj].text.empty() || toks[obj].text.back() != '_') continue;
    const std::size_t call = next_sig(toks, method);
    if (call == npos || !toks[call].punct("(")) continue;
    if (toks[method].ident("push_back") || toks[method].ident("emplace_back")) {
      appends.push_back({std::string(toks[obj].text), toks[method].line});
    } else if (toks[method].ident("clear") || toks[method].ident("assign") ||
               toks[method].ident("resize")) {
      resets.insert(std::string(toks[obj].text));
    }
  }

  std::set<std::string, std::less<>> reported;
  for (const Append& a : appends) {
    if (resets.find(a.name) != resets.end()) continue;
    if (!reported.insert(a.name).second) continue;  // one finding per member
    if (allowed_on_line(allows, "workspace-reset", a.line)) continue;
    out.push_back({path, a.line, "workspace-reset",
                   "member container '" + a.name +
                       "' is appended to but never clear()ed/assign()ed/"
                       "resize()d in this file — the workspace is reused "
                       "across executions, so stale elements survive into "
                       "the next run"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Drivers.
// ---------------------------------------------------------------------------

namespace detail {

/// Shared per-file state so lint_tree lexes each file exactly once.
struct PreparedFile {
  std::string path;
  std::vector<Token> toks;
  std::vector<Allow> allows;
  std::vector<Finding> findings;  // allow-syntax findings from parsing
};

inline PreparedFile prepare(const std::string& path, std::string_view content) {
  PreparedFile f;
  f.path = path;
  f.toks = lex(content);
  f.allows = parse_allows(f.toks, path, f.findings);
  return f;
}

inline std::vector<Finding> run_file_rules(const PreparedFile& f) {
  std::vector<Finding> out = f.findings;
  auto append = [&out](std::vector<Finding> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  append(check_determinism(f.path, f.toks, f.allows));
  append(check_sinr_float(f.path, f.toks, f.allows));
  append(check_ensure_arg(f.path, f.toks, f.allows));
  append(check_pragma_once(f.path, f.toks, f.allows));
  append(check_include_hygiene(f.path, f.toks, f.allows));
  append(check_layering(f.path, f.toks, f.allows));
  append(check_fp_accumulate(f.path, f.toks, f.allows));
  append(check_lock_discipline(f.path, f.toks, f.allows));
  append(check_rng_flow(f.path, f.toks, f.allows));
  append(check_error_discipline(f.path, f.toks, f.allows));
  append(check_workspace_reset(f.path, f.toks, f.allows));
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return out;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Artifacts: everything the tree analyses need per file, derived from
// (path, content) in one lexing pass. Cross-file findings (include cycles,
// the interprocedural model rules) are computed from all artifacts together
// — they depend on the whole tree, not one file.
// ---------------------------------------------------------------------------

/// One quoted include of a src/ file, as written (the text between quotes).
struct IncludeEdge {
  int line = 1;
  std::string inner;
};

struct FileArtifacts {
  std::string path;
  std::vector<Finding> findings;      ///< per-file rule findings, sorted
  std::vector<Allow> allows;
  std::vector<IncludeEdge> includes;  ///< quoted includes (src/ files only)
  bool has_model = false;
  model::FileModel model;             ///< populated for src/ files
};

/// Lexes one file and runs every per-file analysis: rule findings, allow
/// annotations, include edges, and the program-model extraction.
inline FileArtifacts prepare_artifacts(const std::string& path,
                                       std::string_view content) {
  detail::PreparedFile f = detail::prepare(path, content);
  FileArtifacts a;
  a.path = path;
  a.findings = detail::run_file_rules(f);
  if (detail::starts_with(path, "src/")) {
    for (const Token& t : f.toks) {
      if (t.kind == TokKind::kHeaderName && t.text.size() >= 2 &&
          t.text.front() == '"') {
        a.includes.push_back({t.line, t.text.substr(1, t.text.size() - 2)});
      }
    }
    a.model = model::extract(path, f.toks);
    a.has_model = true;
  }
  a.allows = std::move(f.allows);
  return a;
}

namespace detail {

/// Cross-file half of the layering rule: the src/ include graph must be
/// acyclic. Quoted includes are resolved src-relatively (bare names resolve
/// to the including file's directory); each back edge found by the DFS is
/// one finding at the offending #include.
inline std::vector<Finding> check_include_cycles(
    const std::vector<FileArtifacts>& files) {
  struct Edge {
    std::string target;
    int line = 1;
  };
  std::map<std::string, std::vector<Edge>> graph;
  std::map<std::string, const FileArtifacts*> by_path;
  for (const FileArtifacts& f : files) {
    if (!starts_with(f.path, "src/")) continue;
    by_path[f.path] = &f;
  }
  for (const auto& [path, file] : by_path) {
    std::vector<Edge>& edges = graph[path];
    for (const IncludeEdge& inc : file->includes) {
      std::string target;
      if (inc.inner.find('/') != std::string::npos) {
        target = "src/" + inc.inner;
      } else {
        const std::size_t dir_end = path.rfind('/');
        target = path.substr(0, dir_end + 1) + inc.inner;
      }
      if (by_path.count(target) != 0) edges.push_back({target, inc.line});
    }
  }

  std::vector<Finding> out;
  // 0 = white, 1 = on stack, 2 = done.
  std::map<std::string, int> color;
  std::vector<std::string> stack;
  // Recursive DFS via explicit lambda (the graph is tiny: src/ file count).
  auto dfs = [&](auto&& self, const std::string& node) -> void {
    color[node] = 1;
    stack.push_back(node);
    for (const Edge& e : graph[node]) {
      const int c = color[e.target];
      if (c == 1) {
        // Back edge: the cycle is the stack suffix from e.target onwards.
        std::string cycle;
        bool in_cycle = false;
        for (const std::string& s : stack) {
          if (s == e.target) in_cycle = true;
          if (in_cycle) cycle += s + " -> ";
        }
        cycle += e.target;
        const FileArtifacts& f = *by_path[node];
        if (!allowed_on_line(f.allows, "layering", e.line)) {
          out.push_back({node, e.line, "layering",
                         "include cycle: " + cycle +
                             " — break the cycle or move the shared piece "
                             "into a lower layer"});
        }
      } else if (c == 0) {
        self(self, e.target);
      }
    }
    stack.pop_back();
    color[node] = 2;
  };
  for (const auto& [path, edges] : graph) {
    (void)edges;
    if (color[path] == 0) dfs(dfs, path);
  }
  return out;
}

}  // namespace detail

/// Runs every per-file rule on one file. `path` must be repo-relative with
/// '/' separators (e.g. "src/sinr/channel.cpp"). The interprocedural rules
/// need the whole tree and therefore run only in lint_tree/finalize_tree.
inline std::vector<Finding> lint_file(const std::string& path,
                                      std::string_view content) {
  return detail::run_file_rules(detail::prepare(path, content));
}

/// Combines per-file artifacts into the tree verdict: per-file findings
/// plus the cross-file analyses (include cycles, the four interprocedural
/// model rules). Findings are sorted by (file, line, rule).
inline std::vector<Finding> finalize_tree(
    const std::vector<FileArtifacts>& files) {
  std::vector<Finding> out;
  for (const FileArtifacts& f : files) {
    out.insert(out.end(), f.findings.begin(), f.findings.end());
  }
  const std::vector<Finding> cycles = detail::check_include_cycles(files);
  out.insert(out.end(), cycles.begin(), cycles.end());
  std::vector<model::TreeFile> tree;
  tree.reserve(files.size());
  for (const FileArtifacts& f : files) {
    if (!f.has_model) continue;
    tree.push_back({f.path, &f.model, &f.allows});
  }
  const std::vector<Finding> interproc = model::analyze_tree(tree);
  out.insert(out.end(), interproc.begin(), interproc.end());
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return out;
}

/// Runs the per-file rules on every input plus the cross-file analyses.
inline std::vector<Finding> lint_tree(const std::vector<FileInput>& files) {
  std::vector<FileArtifacts> artifacts;
  artifacts.reserve(files.size());
  for (const FileInput& f : files) {
    artifacts.push_back(prepare_artifacts(f.path, f.content));
  }
  return finalize_tree(artifacts);
}

}  // namespace fcrlint
