// fcrlint v3 — cross-translation-unit program model and the interprocedural
// rules built on it.
//
// The per-file token rules (fcrlint_rules.hpp) cannot see across files, so
// the invariants the repo's headline claims rest on — split()-rooted Rng
// lineage, the zero-allocation steady state, and the fcr::Error taxonomy —
// were only proven dynamically (global new/delete counters, failpoint
// campaigns). This header builds a lightweight semantic index from the
// existing token stream and re-proves them statically, tree-wide:
//
//   extraction (per file)
//     scope-stack pseudo-parse over the significant, non-preprocessor
//     tokens: namespaces / classes (with base lists) / function definitions
//     with qualified names; per function the call sites (with receivers),
//     allocation sites, throw sites, Rng construction sites and the
//     definite-init flow hazards (fcrlint_cfg.hpp + fcrlint_dataflow.hpp);
//     per file the mentioned type names and the reserve/clear'd receivers.
//
//   program model (cross-file)
//     definitions merged with their declarations, call edges resolved by
//     qualified-name suffix or by unqualified name filtered through a
//     class-visibility test (the callee's class — or one of its transitive
//     bases, which over-approximates virtual dispatch — must be mentioned
//     in the caller's file), and BFS reachability with parent chains so
//     every finding carries a witness path.
//
//   rules (emit through the ordinary Finding / allow-annotation machinery)
//     rng-lineage      ambient/defaulted Rng seeding anywhere in src/, and
//                      seed-rooted streams constructed inside the execution
//                      closure (run_execution / ExecutionWorkspace::run)
//     hot-path-alloc   allocation reachable from ExecutionWorkspace::
//                      run_rounds, the steady-state round loop
//     error-provenance bare std:: exceptions thrown on paths reachable
//                      from ThreadPool::for_each callers (task bodies)
//     definite-init    a container read on a path where no sizing call has
//                      happened yet
//
// The model is deliberately an over-approximation (name-based resolution);
// every residual finding is suppressible with a reasoned allow.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fcrlint_cfg.hpp"
#include "fcrlint_core.hpp"
#include "fcrlint_dataflow.hpp"
#include "fcrlint_lexer.hpp"

namespace fcrlint::model {

// ---------------------------------------------------------------------------
// Per-file facts.
// ---------------------------------------------------------------------------

struct CallSite {
  int line = 1;
  std::string receiver;  ///< object of a ./-> call ("" for free calls)
  std::string callee;    ///< name, possibly "A::b" qualified
};

struct AllocSite {
  enum Kind : int {
    kNew = 0,        ///< new T / new T[n]
    kMakeSmart = 1,  ///< make_unique / make_shared
    kGrowth = 2,     ///< push_back & co on a non-local receiver
    kLocalGrowth = 3,///< push_back & co on an unreserved function-local
    kLocalCtor = 4,  ///< sized construction of a function-local container
  };
  int kind = kNew;
  int line = 1;
  std::string what;  ///< allocated type or receiver name
};

struct ThrowSite {
  int line = 1;
  std::string head;  ///< thrown head tokens ("std::runtime_error"); "" = rethrow
};

struct RngSite {
  enum Kind : int {
    kSplit = 0,     ///< initializer calls split()
    kDerived = 1,   ///< initialized from another stream variable
    kSeedRoot = 2,  ///< initializer mentions a seed — a lineage root
    kAmbient = 3,   ///< default-constructed or literal/entropy-seeded
  };
  int kind = kSplit;
  int line = 1;
  std::string name;
};

/// A read of a container on some path where no resize/assign/reserve has
/// definitely happened yet (must-init dataflow over the CFG).
struct InitHazard {
  int line = 1;
  std::string name;
};

struct FunctionFacts {
  std::string qualified;  ///< "fcr::ThreadPool::submit"
  std::string name;       ///< "submit"
  std::string cls;        ///< "fcr::ThreadPool" ("" for free functions)
  int line = 1;
  bool is_definition = false;
  std::vector<CallSite> calls;
  std::vector<AllocSite> allocs;
  std::vector<ThrowSite> throw_sites;
  std::vector<RngSite> rngs;
  std::vector<InitHazard> init_hazards;
};

struct ClassDecl {
  std::string name;                ///< qualified
  std::vector<std::string> bases;  ///< base last-components
};

struct FileModel {
  std::vector<FunctionFacts> functions;
  std::vector<ClassDecl> classes;
  std::vector<std::string> types_mentioned;  ///< uppercase-initial idents
  std::vector<std::string> reserved;  ///< receivers of reserve/clear/assign/resize
};

// ---------------------------------------------------------------------------
// Extraction.
// ---------------------------------------------------------------------------

namespace extdetail {

using fcrlint::detail::match_forward;
using fcrlint::detail::starts_with;

inline bool is_upper(char c) { return c >= 'A' && c <= 'Z'; }

/// C++ keywords and fcrlint-relevant macro-ish names that are never treated
/// as callees or receivers.
inline bool keyword(std::string_view s) {
  static const std::set<std::string_view> k = {
      "alignas",   "alignof",  "and",        "asm",          "auto",
      "bool",      "break",    "case",       "catch",        "char",
      "class",     "co_await", "co_return",  "co_yield",     "concept",
      "const",     "constexpr","consteval",  "constinit",    "continue",
      "decltype",  "default",  "defined",    "delete",       "do",
      "double",    "else",     "enum",       "explicit",     "export",
      "extern",    "false",    "final",      "float",        "for",
      "friend",    "goto",     "if",         "inline",       "int",
      "long",      "mutable",  "namespace",  "new",          "noexcept",
      "not",       "nullptr",  "operator",   "or",           "override",
      "private",   "protected","public",     "register",     "requires",
      "return",    "short",    "signed",     "sizeof",       "static",
      "static_assert",         "static_cast","struct",       "switch",
      "template",  "this",     "thread_local", "throw",      "true",
      "try",       "typedef",  "typeid",     "typename",     "union",
      "unsigned",  "using",    "virtual",    "void",         "volatile",
      "while"};
  return k.count(s) != 0;
}

/// Skips a template argument list whose '<' sits at `i`. Returns the index
/// just past the matching '>', or npos when `<` turns out to be a
/// comparison (a ';' or '{' interrupts) or the list is unbalanced.
inline std::size_t skip_angles(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  std::size_t j = i;
  while (j < t.size()) {
    const Token& tok = t[j];
    if (tok.punct("<")) ++depth;
    else if (tok.punct("<<")) depth += 2;
    else if (tok.punct(">")) --depth;
    else if (tok.punct(">>")) depth -= 2;
    else if (tok.punct("(")) {
      j = match_forward(t, j, "(", ")");
      if (j == npos) return npos;
    } else if (tok.punct(";") || tok.punct("{")) {
      return npos;
    }
    ++j;
    if (depth <= 0) return j;
  }
  return npos;
}

/// A matched function plus its body's filtered-token range.
struct RawFunction {
  FunctionFacts facts;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;  ///< [begin, end); begin == end for declarations
  std::size_t params_begin = 0;
  std::size_t params_end = 0;  ///< parameter-list token range (for decl types)
};

inline std::string join_qual(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return a + "::" + b;
}

/// Attempts to match a function declarator whose name chain starts at t[i].
/// `prefix` is the enclosing scope's qualified name, `in_class` whether the
/// innermost scope is a class. On success fills `rf` and returns the index
/// to resume scanning at (past the body or the terminating ';'); otherwise
/// returns npos.
inline std::size_t try_function(const std::vector<Token>& t, std::size_t i,
                                const std::string& prefix, bool in_class,
                                RawFunction& rf) {
  const std::size_t n = t.size();
  std::size_t j = i;
  std::string explicit_cls;
  // Optional qualifier chain of an out-of-line definition: A::B:: ...
  while (j + 2 < n && t[j].kind == TokKind::kIdent && t[j + 1].punct("::") &&
         (t[j + 2].kind == TokKind::kIdent || t[j + 2].punct("~"))) {
    // Stop the chain when the next component is followed by '<' (a type
    // like std::vector<...>), handled by the terminal check below failing.
    explicit_cls = join_qual(explicit_cls, t[j].text);
    j += 2;
  }
  std::string name;
  if (t[j].punct("~")) {
    if (j + 1 >= n || t[j + 1].kind != TokKind::kIdent) return npos;
    name = "~" + t[j + 1].text;
    j += 2;
  } else if (t[j].ident("operator")) {
    std::size_t k = j + 1;
    name = "operator";
    if (k + 1 < n && t[k].punct("(") && t[k + 1].punct(")")) {
      name += "()";
      k += 2;
    } else {
      while (k < n && t[k].kind == TokKind::kPunct && !t[k].punct("(")) {
        name += t[k].text;
        ++k;
      }
      while (k < n && t[k].kind == TokKind::kIdent) {  // operator bool
        name += "_" + t[k].text;
        ++k;
      }
    }
    j = k;
  } else if (t[j].kind == TokKind::kIdent && !keyword(t[j].text)) {
    name = t[j].text;
    ++j;
  } else {
    return npos;
  }
  if (j >= n || !t[j].punct("(")) return npos;
  const std::size_t params_close = match_forward(t, j, "(", ")");
  if (params_close == npos) return npos;

  std::size_t body_open = npos;
  std::size_t k = params_close + 1;
  while (k < n) {
    const Token& tk = t[k];
    if (tk.punct("{")) {
      body_open = k;
      break;
    }
    if (tk.punct(";")) break;  // declaration
    if (tk.punct("=")) {       // = default / = delete / = 0
      while (k < n && !t[k].punct(";")) ++k;
      break;
    }
    if (tk.punct(":")) {  // constructor initializer list
      std::size_t m = k + 1;
      int depth = 0;
      while (m < n) {
        const Token& tm = t[m];
        if (tm.punct("(") || tm.punct("[")) ++depth;
        else if (tm.punct(")") || tm.punct("]")) --depth;
        else if (tm.punct("{") && depth == 0) {
          // A '{' directly after ')' or '}' is the function body; one after
          // a member name is that member's brace initializer.
          const bool body = m > 0 && (t[m - 1].punct(")") || t[m - 1].punct("}"));
          if (body) break;
          const std::size_t close = match_forward(t, m, "{", "}");
          if (close == npos) return npos;
          m = close;
        }
        ++m;
      }
      if (m >= n) return npos;
      body_open = m;
      break;
    }
    if (tk.kind == TokKind::kIdent) {
      if (k + 1 < n && t[k + 1].punct("(") &&
          (starts_with(tk.text, "FCR_") || tk.text == "noexcept" ||
           tk.text == "throw")) {
        const std::size_t close = match_forward(t, k + 1, "(", ")");
        if (close == npos) return npos;
        k = close + 1;
        continue;
      }
      ++k;  // const, noexcept, override, final, macro without args, try
      continue;
    }
    if (tk.punct("&") || tk.punct("&&")) {
      ++k;
      continue;
    }
    if (tk.punct("->")) {  // trailing return type
      std::size_t m = k + 1;
      while (m < n && !t[m].punct("{") && !t[m].punct(";")) {
        if (t[m].punct("(")) {
          const std::size_t close = match_forward(t, m, "(", ")");
          if (close == npos) return npos;
          m = close;
        }
        ++m;
      }
      k = m;
      continue;
    }
    if (tk.punct("[")) {  // [[attribute]]
      const std::size_t close = match_forward(t, k, "[", "]");
      if (close == npos) return npos;
      k = close + 1;
      continue;
    }
    return npos;  // not a function declarator after all
  }
  if (k >= n) return npos;

  std::string cls = explicit_cls.empty()
                        ? (in_class ? prefix : std::string{})
                        : join_qual(prefix, explicit_cls);
  rf.facts.name = name;
  rf.facts.cls = cls;
  rf.facts.qualified = join_qual(cls.empty() ? prefix : cls, name);
  rf.facts.line = t[i].line;
  rf.params_begin = j + 1;
  rf.params_end = params_close;
  if (body_open != npos) {
    const std::size_t body_close = match_forward(t, body_open, "{", "}");
    if (body_close == npos) return npos;
    rf.facts.is_definition = true;
    rf.body_begin = body_open + 1;
    rf.body_end = body_close;
    return body_close + 1;
  }
  rf.facts.is_definition = false;
  rf.body_begin = rf.body_end = 0;
  return k + 1;  // past the ';'
}

/// Walks the top-level structure (namespaces, classes, function declarators)
/// of the filtered token stream, collecting raw functions and class
/// declarations. Function bodies are consumed whole here and scanned by
/// scan_body afterwards.
inline void parse_structure(const std::vector<Token>& t,
                            std::vector<RawFunction>& fns,
                            std::vector<ClassDecl>& classes) {
  struct Scope {
    int kind;  // 0 namespace, 1 class, 2 plain block
    std::string name;
  };
  std::vector<Scope> scopes;
  auto prefix = [&]() {
    std::string q;
    for (const Scope& s : scopes) {
      if (!s.name.empty()) q = join_qual(q, s.name);
    }
    return q;
  };

  const std::size_t n = t.size();
  std::size_t i = 0;
  while (i < n) {
    const Token& tok = t[i];
    if (tok.ident("virtual")) {  // a specifier, not part of the declarator
      ++i;
      continue;
    }
    if (tok.punct("{")) {
      scopes.push_back({2, ""});
      ++i;
      continue;
    }
    if (tok.punct("}")) {
      if (!scopes.empty()) scopes.pop_back();
      ++i;
      continue;
    }
    if (tok.ident("namespace")) {
      std::string name;
      std::size_t j = i + 1;
      while (j < n && (t[j].kind == TokKind::kIdent || t[j].punct("::"))) {
        name += t[j].text;
        ++j;
      }
      if (j < n && t[j].punct("{")) {
        scopes.push_back({0, name});
        i = j + 1;
      } else {  // namespace alias / using-directive tail
        while (j < n && !t[j].punct(";")) ++j;
        i = j + 1;
      }
      continue;
    }
    if (tok.ident("template")) {
      if (i + 1 < n && t[i + 1].punct("<")) {
        const std::size_t after = skip_angles(t, i + 1);
        if (after != npos) {
          i = after;
          continue;
        }
      }
      ++i;
      continue;
    }
    if (tok.ident("enum")) {
      std::size_t j = i + 1;
      while (j < n && !t[j].punct("{") && !t[j].punct(";")) ++j;
      if (j < n && t[j].punct("{")) {
        const std::size_t close = match_forward(t, j, "{", "}");
        i = close == npos ? n : close + 1;
      } else {
        i = j + 1;
      }
      continue;
    }
    if (tok.ident("using") || tok.ident("typedef") || tok.ident("friend")) {
      std::size_t j = i + 1;
      int depth = 0;
      while (j < n) {
        if (t[j].punct("{") || t[j].punct("(")) ++depth;
        else if (t[j].punct("}") || t[j].punct(")")) --depth;
        else if (t[j].punct(";") && depth <= 0) break;
        ++j;
      }
      i = j + 1;
      continue;
    }
    if (tok.ident("class") || tok.ident("struct") || tok.ident("union")) {
      std::size_t j = i + 1;
      // Attribute-like macros / alignas between the keyword and the name.
      while (j + 1 < n && t[j].kind == TokKind::kIdent && t[j + 1].punct("(") &&
             (starts_with(t[j].text, "FCR_") || t[j].text == "alignas")) {
        const std::size_t close = match_forward(t, j + 1, "(", ")");
        if (close == npos) break;
        j = close + 1;
      }
      std::string name;
      while (j < n && t[j].kind == TokKind::kIdent) {
        name = join_qual(name, t[j].text);
        ++j;
        if (j < n && t[j].punct("::")) {
          ++j;
          continue;
        }
        break;
      }
      if (j < n && t[j].punct("<")) {  // specialization arguments
        const std::size_t after = skip_angles(t, j);
        if (after == npos) {
          ++i;
          continue;
        }
        j = after;
      }
      if (j < n && t[j].ident("final")) ++j;
      if (j < n && t[j].punct(":")) {  // base clause
        ClassDecl decl;
        decl.name = join_qual(prefix(), name);
        std::size_t k = j + 1;
        int depth = 0;
        std::string last;
        while (k < n && !(t[k].punct("{") && depth == 0)) {
          const Token& tk = t[k];
          if (tk.punct("<")) {
            const std::size_t after = skip_angles(t, k);
            if (after == npos) break;
            k = after;
            continue;
          }
          if (tk.punct("(")) ++depth;
          else if (tk.punct(")")) --depth;
          else if (tk.kind == TokKind::kIdent && !keyword(tk.text)) last = tk.text;
          else if (tk.punct(",") && depth == 0) {
            if (!last.empty()) decl.bases.push_back(last);
            last.clear();
          }
          ++k;
        }
        if (!last.empty()) decl.bases.push_back(last);
        if (k < n && t[k].punct("{")) {
          classes.push_back(std::move(decl));
          scopes.push_back({1, name});
          i = k + 1;
          continue;
        }
        i = k < n ? k + 1 : n;
        continue;
      }
      if (j < n && t[j].punct("{")) {
        classes.push_back({join_qual(prefix(), name), {}});
        scopes.push_back({1, name});
        i = j + 1;
        continue;
      }
      i = j < n && t[j].punct(";") ? j + 1 : j + (j == i ? 1 : 0);
      if (i <= j) i = j;  // forward declaration / variable of class type
      if (i == static_cast<std::size_t>(-1) || i < j) i = j;
      continue;
    }
    const bool in_class = !scopes.empty() && scopes.back().kind == 1;
    // `T name_ FCR_GUARDED_BY(m);` is a data member, not a declarator of a
    // function named FCR_GUARDED_BY.
    if (in_class && tok.kind == TokKind::kIdent &&
        (tok.text == "FCR_GUARDED_BY" || tok.text == "FCR_PT_GUARDED_BY") &&
        i + 1 < n && t[i + 1].punct("(")) {
      const std::size_t close = match_forward(t, i + 1, "(", ")");
      if (close != npos && i >= 1 && t[i - 1].kind == TokKind::kIdent) {
        i = close + 1;
        continue;
      }
    }
    if (tok.kind == TokKind::kIdent || tok.punct("~")) {
      RawFunction rf;
      const std::size_t resume = try_function(t, i, prefix(), in_class, rf);
      if (resume != npos) {
        fns.push_back(std::move(rf));
        i = resume;
        continue;
      }
    }
    ++i;
  }
}

/// Receiver of a member access `X.f` / `X->f` where the member name sits at
/// `m`: the index of the identifier before the ./->, looking through a
/// trailing [index] or (call) group. Returns npos when there is no
/// resolvable receiver identifier ("this" IS returned, as its own index).
inline std::size_t receiver_index(const std::vector<Token>& t, std::size_t lo,
                                  std::size_t m) {
  if (m < lo + 2) return npos;
  if (!t[m - 1].punct(".") && !t[m - 1].punct("->")) return npos;
  std::size_t r = m - 2;
  if (t[r].punct("]") || t[r].punct(")")) {
    const bool sq = t[r].punct("]");
    const std::size_t open = fcrlint::detail::match_backward(
        t, r, sq ? "[" : "(", sq ? "]" : ")");
    if (open == npos || open <= lo) return npos;
    r = open - 1;
  }
  if (t[r].kind == TokKind::kIdent &&
      (!keyword(t[r].text) || t[r].text == "this")) {
    return r;
  }
  return npos;
}

/// Scans one function body for calls, allocations, throws and Rng
/// construction sites.
inline void scan_body(const std::vector<Token>& t, RawFunction& rf,
                      std::set<std::string>& reserved_out) {
  FunctionFacts& f = rf.facts;
  std::set<std::string> locals;          // declared container locals
  std::set<std::string> local_reserved;  // locals reserve()d in-function
  static const std::set<std::string_view> kContainers = {
      "vector", "deque", "basic_string", "map", "multimap", "set", "multiset",
      "unordered_map", "unordered_multimap", "unordered_set",
      "unordered_multiset", "list", "forward_list", "queue", "priority_queue",
      "stack"};
  static const std::set<std::string_view> kGrowth = {
      "push_back", "emplace_back", "push_front", "emplace_front", "insert",
      "emplace", "append", "push"};
  static const std::set<std::string_view> kReserve = {
      "reserve", "resize", "assign", "clear", "shrink_to_fit"};
  const std::size_t lo = rf.body_begin;
  const std::size_t hi = rf.body_end;

  for (std::size_t m = lo; m < hi; ++m) {
    const Token& tok = t[m];
    if (tok.kind != TokKind::kIdent) continue;
    const std::string& s = tok.text;
    const Token* nx = m + 1 < hi ? &t[m + 1] : nullptr;
    const Token* pv = m > lo ? &t[m - 1] : nullptr;

    if (s == "throw") {
      std::string head;
      std::size_t a = m + 1;
      while (a < hi && (t[a].kind == TokKind::kIdent || t[a].punct("::"))) {
        head += t[a].text;
        ++a;
      }
      f.throw_sites.push_back({tok.line, head});
      continue;
    }
    if (s == "new") {
      std::size_t a = m + 1;
      if (a < hi && t[a].punct("(")) {  // placement new
        const std::size_t close = match_forward(t, a, "(", ")");
        if (close == npos) continue;
        a = close + 1;
      }
      std::string what;
      while (a < hi && (t[a].kind == TokKind::kIdent || t[a].punct("::"))) {
        if (t[a].kind == TokKind::kIdent) what = t[a].text;
        ++a;
      }
      f.allocs.push_back(
          {AllocSite::kNew, tok.line, what.empty() ? std::string("object") : what});
      continue;
    }
    if (s == "Rng" && nx != nullptr && nx->kind == TokKind::kIdent) {
      const std::size_t name_i = m + 1;
      const std::size_t a = name_i + 1;
      int kind = -1;
      std::size_t init_b = npos, init_e = npos;
      if (a >= hi || t[a].punct(";") || t[a].punct(",") || t[a].punct(")")) {
        // `Rng r;` default-constructs with the baked-in seed — ambient.
        // (`Rng r,`/`Rng r)` only occur in parameter-like positions inside
        // lambdas; treat them as ambient-free and skip.)
        kind = (a >= hi || t[a].punct(";")) ? RngSite::kAmbient : -2;
      } else if (t[a].punct("(") || t[a].punct("{")) {
        const bool paren = t[a].punct("(");
        const std::size_t close =
            match_forward(t, a, paren ? "(" : "{", paren ? ")" : "}");
        if (close != npos) {
          init_b = a + 1;
          init_e = close;
        }
      } else if (t[a].punct("=")) {
        init_b = a + 1;
        init_e = init_b;
        int depth = 0;
        while (init_e < hi) {
          const Token& te = t[init_e];
          if (te.punct("(") || te.punct("{") || te.punct("[")) ++depth;
          else if (te.punct(")") || te.punct("}") || te.punct("]")) --depth;
          else if (te.punct(";") && depth == 0) break;
          ++init_e;
        }
      }
      if (kind == -1 && init_b != npos) {
        bool split = false, seedish = false, entropy = false, any_var = false;
        for (std::size_t b = init_b; b < init_e; ++b) {
          if (t[b].kind != TokKind::kIdent) continue;
          const std::string& id = t[b].text;
          if (id == "split") split = true;
          std::string low;
          for (const char c : id) {
            low += (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
          }
          if (low.find("seed") != std::string::npos) seedish = true;
          if (id == "random_device" || id == "now" || id == "time") {
            entropy = true;
          }
          if (!keyword(id) && id != "std" && id != "fcr") any_var = true;
        }
        kind = split     ? RngSite::kSplit
               : entropy ? RngSite::kAmbient
               : seedish ? RngSite::kSeedRoot
               : any_var ? RngSite::kDerived
                         : RngSite::kAmbient;  // literal-only or empty init
      }
      if (kind >= 0) f.rngs.push_back({kind, tok.line, t[name_i].text});
      continue;
    }
    // Container local declarations: vector<...> name [({...})]
    if (kContainers.count(s) != 0 && nx != nullptr && nx->punct("<")) {
      const std::size_t after = skip_angles(t, m + 1);
      if (after != npos && after < hi && t[after].kind == TokKind::kIdent &&
          !keyword(t[after].text)) {
        const std::string& var = t[after].text;
        locals.insert(var);
        if (after + 1 < hi && (t[after + 1].punct("(") || t[after + 1].punct("{"))) {
          const bool paren = t[after + 1].punct("(");
          const std::size_t close = match_forward(
              t, after + 1, paren ? "(" : "{", paren ? ")" : "}");
          if (close != npos) {
            if (close > after + 2) {
              f.allocs.push_back({AllocSite::kLocalCtor, t[after].line, var});
            }
            m = close;
            continue;
          }
        }
        m = after;
        continue;
      }
    }
    // make_unique<T>(...) / make_shared<T>(...)
    if ((s == "make_unique" || s == "make_shared") && nx != nullptr &&
        (nx->punct("<") || nx->punct("("))) {
      std::string what = s;
      if (nx->punct("<")) {
        const std::size_t after = skip_angles(t, m + 1);
        for (std::size_t b = m + 2; after != npos && b + 1 < after; ++b) {
          if (t[b].kind == TokKind::kIdent && !keyword(t[b].text) &&
              t[b].text != "std" && t[b].text != "fcr") {
            what = t[b].text;
            break;
          }
        }
      }
      f.allocs.push_back({AllocSite::kMakeSmart, tok.line, what});
      continue;
    }
    // Calls.
    if (nx != nullptr && nx->punct("(")) {
      if (keyword(s)) continue;
      // `Type name(...)` declarations are not calls; the previous token of a
      // genuine call is an operator, ';', '{', '}', '(' — not a plain
      // identifier or a template '>'.
      const bool decl_like =
          pv != nullptr &&
          ((pv->kind == TokKind::kIdent && !keyword(pv->text)) || pv->punct(">"));
      const std::size_t ri = receiver_index(t, lo, m);
      const std::string receiver = ri == npos ? std::string{} : t[ri].text;
      if (!receiver.empty() && receiver != "this") {
        if (kGrowth.count(s) != 0) {
          if (locals.count(receiver) != 0) {
            if (local_reserved.count(receiver) == 0) {
              f.allocs.push_back({AllocSite::kLocalGrowth, tok.line, receiver});
            }
          } else {
            f.allocs.push_back({AllocSite::kGrowth, tok.line, receiver});
          }
        } else if (kReserve.count(s) != 0) {
          if (locals.count(receiver) != 0) {
            local_reserved.insert(receiver);
          } else {
            reserved_out.insert(receiver);
          }
        }
      }
      if (!decl_like) {
        std::string callee = s;
        if (pv != nullptr && pv->punct("::") && m >= lo + 2 &&
            t[m - 2].kind == TokKind::kIdent) {
          callee = t[m - 2].text + "::" + s;
          if (m >= lo + 4 && t[m - 3].punct("::") &&
              t[m - 4].kind == TokKind::kIdent) {
            callee = t[m - 4].text + "::" + callee;
          }
        }
        f.calls.push_back({tok.line, receiver, callee});
      }
      continue;
    }
  }
}

// ---------------------------------------------------------------------------
// v4 flow analysis: CFG + dataflow facts per function.
// ---------------------------------------------------------------------------

/// The v4 per-function flow pass: builds the CFG over the body and runs a
/// must-initialized dataflow over container locals and in-function sized
/// receivers, recording as definite-init hazards the subscript/back/front
/// reads on paths where no resize/assign/reserve dominates.
inline void analyze_flow(const std::vector<Token>& t, RawFunction& rf) {
  FunctionFacts& f = rf.facts;
  const std::size_t lo = rf.body_begin;
  const std::size_t hi = rf.body_end;

  std::set<std::string> params;
  for (std::size_t m = rf.params_begin; m < rf.params_end && m < t.size();
       ++m) {
    if (t[m].kind == TokKind::kIdent && !keyword(t[m].text)) {
      params.insert(t[m].text);
    }
  }
  // clear() is deliberately absent: it empties the container, so it neither
  // establishes size nor reads elements (a subscript after clear() is
  // precisely the bug class this rule exists for).
  static const std::set<std::string_view> kInitCalls = {
      "resize", "assign",       "reserve", "push_back",
      "insert", "emplace_back", "emplace", "append", "push", "fill"};
  static const std::set<std::string_view> kReadCalls = {"back", "front", "at"};
  static const std::set<std::string_view> kInitContainers = {
      "vector", "deque", "basic_string", "string"};
  std::set<std::string> candidates;
  for (std::size_t m = lo; m + 1 < hi; ++m) {
    if (t[m].kind != TokKind::kIdent ||
        kInitContainers.count(t[m].text) == 0 || !t[m + 1].punct("<")) {
      continue;
    }
    const std::size_t after = skip_angles(t, m + 1);
    if (after != npos && after < hi && t[after].kind == TokKind::kIdent &&
        !keyword(t[after].text)) {
      candidates.insert(t[after].text);
    }
  }
  for (const CallSite& c : f.calls) {
    if (!c.receiver.empty() && c.receiver != "this" &&
        kInitCalls.count(c.callee) != 0) {
      candidates.insert(c.receiver);
    }
  }
  for (const std::string& p : params) candidates.erase(p);
  if (candidates.empty()) return;

  const cfg::Cfg g = cfg::build_cfg(t, lo, hi);
  // Gen rule: sized/assigning member calls, whole assignment, a sized
  // declaration, or any other mention (passing by reference to a filler
  // counts — the analysis only flags reads no mention could have fed).
  // Use rule: subscripts and back/front/at.
  auto replay_span = [&](cfg::Span s, dataflow::MustSet& in,
                         std::vector<InitHazard>* hazards,
                         std::set<std::pair<std::string, int>>* seen) {
    for (std::size_t m = s.lo; m < s.hi && m < t.size(); ++m) {
      if (t[m].kind != TokKind::kIdent) continue;
      const std::string& name = t[m].text;
      if (candidates.count(name) == 0) continue;
      const Token* nx = m + 1 < hi ? &t[m + 1] : nullptr;
      if (nx != nullptr && nx->punct("[")) {
        if (in.count(name) == 0 && hazards != nullptr &&
            seen->insert({name, t[m].line}).second) {
          hazards->push_back({t[m].line, name});
        }
        continue;  // a subscript never establishes size
      }
      if (nx != nullptr && (nx->punct(".") || nx->punct("->")) &&
          m + 2 < t.size() && t[m + 2].kind == TokKind::kIdent) {
        const std::string& member = t[m + 2].text;
        if (kReadCalls.count(member) != 0) {
          if (in.count(name) == 0 && hazards != nullptr &&
              seen->insert({name, t[m].line}).second) {
            hazards->push_back({t[m].line, name});
          }
        } else if (kInitCalls.count(member) != 0 || member == "size" ||
                   member == "empty" || member == "capacity") {
          // Sizing calls establish the size; consulting size()/empty()
          // is positive evidence the code handles the empty case (the
          // guard polarity is beyond a must-set lattice), so both count
          // as initialization. clear() and the rest stay neutral.
          in.insert(name);
        }
        ++m;  // skip past the accessor so it is not treated as a mention
        continue;
      }
      in.insert(name);
    }
  };
  const auto init_in = dataflow::solve_forward<dataflow::MustSet>(
      g, dataflow::MustSet{},
      [&](std::size_t b, const dataflow::MustSet& in) {
        dataflow::MustSet out = in;
        for (const cfg::Span& span : g.blocks[b].spans) {
          replay_span(span, out, nullptr, nullptr);
        }
        return out;
      },
      dataflow::must_join);
  std::set<std::pair<std::string, int>> seen;
  for (std::size_t b = 0; b < g.blocks.size(); ++b) {
    if (!init_in[b].has_value()) continue;
    dataflow::MustSet cur = *init_in[b];
    for (const cfg::Span& span : g.blocks[b].spans) {
      replay_span(span, cur, &f.init_hazards, &seen);
    }
  }
  std::sort(f.init_hazards.begin(), f.init_hazards.end(),
            [](const InitHazard& a, const InitHazard& b) {
              return a.line != b.line ? a.line < b.line : a.name < b.name;
            });
}

}  // namespace extdetail

/// Extracts the per-file program facts from a lexed token stream. `path` is
/// the repo-relative path; only src/ files are expected here (the caller
/// scopes the model to the library tree).
inline FileModel extract(const std::string& path,
                         const std::vector<Token>& toks) {
  (void)path;
  FileModel fm;
  // Filter to significant, non-preprocessor tokens: macro definitions are
  // not part of the parsed program (their bodies reference parameters, not
  // live state) and directive operands would desync the scope stack.
  std::vector<Token> t;
  t.reserve(toks.size());
  for (const Token& tok : toks) {
    if (tok.comment() || tok.pp) continue;
    t.push_back(tok);
  }

  std::vector<extdetail::RawFunction> raw;
  extdetail::parse_structure(t, raw, fm.classes);

  std::set<std::string> reserved;
  for (extdetail::RawFunction& rf : raw) {
    if (rf.facts.is_definition && rf.body_end > rf.body_begin) {
      extdetail::scan_body(t, rf, reserved);
      extdetail::analyze_flow(t, rf);
    }
    fm.functions.push_back(std::move(rf.facts));
  }
  fm.reserved.assign(reserved.begin(), reserved.end());

  std::set<std::string> types;
  for (const Token& tok : t) {
    if (tok.kind == TokKind::kIdent && !tok.text.empty() &&
        extdetail::is_upper(tok.text[0]) && !extdetail::keyword(tok.text)) {
      types.insert(tok.text);
    }
  }
  fm.types_mentioned.assign(types.begin(), types.end());
  return fm;
}

// ---------------------------------------------------------------------------
// Program model.
// ---------------------------------------------------------------------------

/// One file's extracted facts plus its allows, as fed to the tree analyses.
struct TreeFile {
  std::string path;
  const FileModel* model = nullptr;
  const std::vector<Allow>* allows = nullptr;
};

struct ProgramFunction {
  FunctionFacts facts;
  std::string file;
  std::vector<std::size_t> callees;
};

struct ProgramModel {
  std::vector<ProgramFunction> fns;
  std::set<std::string> reserved;  ///< receivers reserved/cleared anywhere
  std::map<std::string, std::set<std::string>> file_types;
  std::map<std::string, std::vector<std::string>> bases;  ///< by last name
  std::map<std::string, std::vector<std::size_t>> by_name;
};

namespace pmdetail {

inline std::string last_component(const std::string& qualified) {
  const std::size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

/// True when one qualified class name encloses or equals the other.
inline bool cls_related(const std::string& a, const std::string& b) {
  if (a.empty() || b.empty()) return false;
  if (a == b) return true;
  return fcrlint::detail::starts_with(a, b + "::") ||
         fcrlint::detail::starts_with(b, a + "::");
}

/// True when class `cls_last` — or one of its transitive bases — is
/// mentioned in `types`. Over-approximates virtual dispatch: a call through
/// a base pointer resolves to every derived override.
inline bool class_visible(const ProgramModel& pm,
                          const std::set<std::string>& types,
                          const std::string& cls_last) {
  std::vector<std::string> work = {cls_last};
  std::set<std::string> seen;
  while (!work.empty()) {
    const std::string cur = work.back();
    work.pop_back();
    if (!seen.insert(cur).second) continue;
    if (types.count(cur) != 0) return true;
    const auto it = pm.bases.find(cur);
    if (it == pm.bases.end()) continue;
    for (const std::string& b : it->second) work.push_back(b);
  }
  return false;
}

}  // namespace pmdetail

/// Builds the cross-file model: one node per defined function plus one per
/// declaration that has no definition in the tree, resolved call edges, and
/// the reserved receivers.
inline ProgramModel build_program_model(const std::vector<TreeFile>& files) {
  ProgramModel pm;
  std::set<std::string> defined;
  // Definitions first; a declaration only adds a node when nothing defines it.
  for (const TreeFile& f : files) {
    if (f.model == nullptr) continue;
    for (const FunctionFacts& fn : f.model->functions) {
      if (!fn.is_definition) continue;
      defined.insert(fn.qualified);
      pm.fns.push_back({fn, f.path, {}});
    }
    for (const std::string& r : f.model->reserved) pm.reserved.insert(r);
    auto& types = pm.file_types[f.path];
    for (const std::string& ty : f.model->types_mentioned) types.insert(ty);
    for (const ClassDecl& c : f.model->classes) {
      auto& b = pm.bases[pmdetail::last_component(c.name)];
      for (const std::string& base : c.bases) {
        if (std::find(b.begin(), b.end(), base) == b.end()) b.push_back(base);
      }
    }
  }
  for (const TreeFile& f : files) {
    if (f.model == nullptr) continue;
    for (const FunctionFacts& fn : f.model->functions) {
      if (!fn.is_definition && defined.count(fn.qualified) == 0) {
        pm.fns.push_back({fn, f.path, {}});
      }
    }
  }
  for (std::size_t i = 0; i < pm.fns.size(); ++i) {
    pm.by_name[pm.fns[i].facts.name].push_back(i);
  }
  // Call-edge resolution.
  for (ProgramFunction& fn : pm.fns) {
    const std::set<std::string>& types = pm.file_types[fn.file];
    std::set<std::size_t> edges;
    for (const CallSite& c : fn.facts.calls) {
      const std::size_t sep = c.callee.rfind("::");
      if (sep != std::string::npos) {
        const std::string last = c.callee.substr(sep + 2);
        const auto it = pm.by_name.find(last);
        if (it == pm.by_name.end()) continue;
        for (const std::size_t idx : it->second) {
          const std::string& q = pm.fns[idx].facts.qualified;
          if (q == c.callee ||
              fcrlint::detail::ends_with(q, "::" + c.callee)) {
            edges.insert(idx);
          }
        }
      } else {
        const auto it = pm.by_name.find(c.callee);
        if (it == pm.by_name.end()) continue;
        for (const std::size_t idx : it->second) {
          const std::string& cls = pm.fns[idx].facts.cls;
          // A free function is always a candidate; a method when its
          // class is related to the caller's or visible in the caller's file.
          if (cls.empty() || pmdetail::cls_related(fn.facts.cls, cls) ||
              pmdetail::class_visible(pm, types,
                                      pmdetail::last_component(cls))) {
            edges.insert(idx);
          }
        }
      }
    }
    fn.callees.assign(edges.begin(), edges.end());
  }
  return pm;
}

/// BFS over call edges from `roots`. Returns a parent array: npos means
/// unreached, parent[i] == i marks a root, otherwise the predecessor on the
/// discovered path (the finding's witness chain).
inline std::vector<std::size_t> reach_parents(
    const ProgramModel& pm, const std::vector<std::size_t>& roots) {
  std::vector<std::size_t> parent(pm.fns.size(), npos);
  std::vector<std::size_t> queue;
  for (const std::size_t r : roots) {
    if (r < parent.size() && parent[r] == npos) {
      parent[r] = r;
      queue.push_back(r);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t cur = queue[head];
    for (const std::size_t next : pm.fns[cur].callees) {
      if (parent[next] != npos) continue;
      parent[next] = cur;
      queue.push_back(next);
    }
  }
  return parent;
}

/// Renders the witness chain root -> ... -> fns[idx] (at most 8 hops).
inline std::string witness_chain(const ProgramModel& pm,
                                 const std::vector<std::size_t>& parent,
                                 std::size_t idx) {
  std::vector<std::string> names;
  std::size_t cur = idx;
  for (int hops = 0; hops < 8 && cur != npos; ++hops) {
    names.push_back(pm.fns[cur].facts.qualified);
    if (parent[cur] == cur) break;
    cur = parent[cur];
  }
  std::string s;
  for (std::size_t i = names.size(); i-- > 0;) {
    if (!s.empty()) s += " -> ";
    s += names[i];
  }
  return s;
}

// ---------------------------------------------------------------------------
// Interprocedural rules.
// ---------------------------------------------------------------------------

/// The steady-state round loops: hot-path-alloc's roots.
inline constexpr std::array<std::string_view, 2> kRoundLoopRoots = {
    "ExecutionWorkspace::run_rounds",
    "ExecutionWorkspace::run_rounds_columnar"};

/// The execution closure's entry points, round loops included:
/// rng-lineage's roots.
inline constexpr std::array<std::string_view, 4> kExecutionRoots = {
    "run_execution", "ExecutionWorkspace::run",
    "ExecutionWorkspace::run_rounds",
    "ExecutionWorkspace::run_rounds_columnar"};

namespace pmdetail {

inline const std::vector<Allow>& allows_of(const std::vector<TreeFile>& files,
                                           const std::string& path) {
  static const std::vector<Allow> kEmpty;
  for (const TreeFile& f : files) {
    if (f.path == path && f.allows != nullptr) return *f.allows;
  }
  return kEmpty;
}

/// Root indices whose qualified name ends with any of `suffixes` ("::"-
/// anchored) or whose plain name equals a suffix without "::".
template <class Names>
inline std::vector<std::size_t> roots_matching(const ProgramModel& pm,
                                               const Names& suffixes) {
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < pm.fns.size(); ++i) {
    const ProgramFunction& fn = pm.fns[i];
    for (const std::string_view s : suffixes) {
      const bool hit =
          s.find("::") == std::string_view::npos
              ? fn.facts.name == s
              : (fn.facts.qualified == s ||
                 fcrlint::detail::ends_with(fn.facts.qualified,
                                            "::" + std::string(s)));
      if (hit) {
        roots.push_back(i);
        break;
      }
    }
  }
  return roots;
}

}  // namespace pmdetail

/// rng-lineage: ambient/defaulted Rng construction is banned everywhere in
/// src/ (outside util/rng.*), and seed-rooted streams may only be built
/// outside the execution closure — inside it every stream must come from a
/// split() chain, or trial replay silently forks.
inline std::vector<Finding> check_rng_lineage(
    const ProgramModel& pm, const std::vector<TreeFile>& files) {
  std::vector<Finding> out;
  const std::vector<std::size_t> roots =
      pmdetail::roots_matching(pm, kExecutionRoots);
  const std::vector<std::size_t> parent = reach_parents(pm, roots);
  for (std::size_t i = 0; i < pm.fns.size(); ++i) {
    const ProgramFunction& fn = pm.fns[i];
    if (!fn.facts.is_definition ||
        !fcrlint::detail::starts_with(fn.file, "src/") ||
        fcrlint::detail::starts_with(fn.file, "src/util/rng.")) {
      continue;
    }
    for (const RngSite& r : fn.facts.rngs) {
      std::string why;
      if (r.kind == RngSite::kAmbient) {
        why = "Rng '" + r.name +
              "' is default- or literal-seeded — every stream must derive "
              "from the trial's seeded base via split(<tag>)";
      } else if (r.kind == RngSite::kSeedRoot && parent[i] != npos) {
        why = "Rng '" + r.name +
              "' re-roots a seed inside the execution closure (" +
              witness_chain(pm, parent, i) +
              ") — derive it from the caller's stream via split(<tag>) so "
              "replay stays bit-identical";
      } else {
        continue;
      }
      if (allowed_on_line(pmdetail::allows_of(files, fn.file), "rng-lineage",
                          r.line)) {
        continue;
      }
      out.push_back({fn.file, r.line, "rng-lineage", why});
    }
  }
  return out;
}

/// hot-path-alloc: no allocation on any path reachable from either
/// steady-state round loop — the per-node virtual engine
/// (ExecutionWorkspace::run_rounds) or the columnar SoA engine
/// (ExecutionWorkspace::run_rounds_columnar), which pulls in every
/// decide/columnar_feedback implementation through the call graph. Growth of a receiver that is reserve()d / clear()ed somewhere
/// in the tree is the blessed warm-capacity idiom and stays legal.
inline std::vector<Finding> check_hot_path_alloc(
    const ProgramModel& pm, const std::vector<TreeFile>& files) {
  std::vector<Finding> out;
  const std::vector<std::size_t> roots =
      pmdetail::roots_matching(pm, kRoundLoopRoots);
  const std::vector<std::size_t> parent = reach_parents(pm, roots);
  for (std::size_t i = 0; i < pm.fns.size(); ++i) {
    const ProgramFunction& fn = pm.fns[i];
    if (parent[i] == npos || !fn.facts.is_definition ||
        !fcrlint::detail::starts_with(fn.file, "src/")) {
      continue;
    }
    for (const AllocSite& a : fn.facts.allocs) {
      std::string what;
      switch (a.kind) {
        case AllocSite::kNew:
          what = "'new " + a.what + "'";
          break;
        case AllocSite::kMakeSmart:
          what = "smart-pointer allocation of '" + a.what + "'";
          break;
        case AllocSite::kGrowth:
          if (pm.reserved.count(a.what) != 0) continue;  // warm-capacity idiom
          what = "growth of '" + a.what +
                 "', which is never reserve()d/clear()ed anywhere in the tree";
          break;
        case AllocSite::kLocalGrowth:
          what = "append to unreserved function-local container '" + a.what + "'";
          break;
        case AllocSite::kLocalCtor:
          what = "sized construction of function-local container '" + a.what + "'";
          break;
        default:
          continue;
      }
      if (allowed_on_line(pmdetail::allows_of(files, fn.file),
                          "hot-path-alloc", a.line)) {
        continue;
      }
      out.push_back({fn.file, a.line, "hot-path-alloc",
                     what + " inside the zero-alloc steady state (reachable: " +
                         witness_chain(pm, parent, i) +
                         ") — hoist it into setup/teardown or reserve up "
                         "front"});
    }
  }
  return out;
}

/// error-provenance: throw sites reachable from ThreadPool task bodies
/// (functions that call for_each — their lambdas scan as part of the
/// enclosing body) must construct fcr::Error, not bare std:: exceptions.
inline std::vector<Finding> check_error_provenance(
    const ProgramModel& pm, const std::vector<TreeFile>& files) {
  std::vector<Finding> out;
  static const std::set<std::string_view> kStdExceptions = {
      "exception",     "runtime_error", "logic_error",   "invalid_argument",
      "out_of_range",  "length_error",  "domain_error",  "range_error",
      "overflow_error","underflow_error","bad_alloc",    "bad_cast",
      "bad_function_call",              "system_error"};
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < pm.fns.size(); ++i) {
    for (const CallSite& c : pm.fns[i].facts.calls) {
      const std::string last = pmdetail::last_component(c.callee);
      if (last == "for_each") {
        roots.push_back(i);
        break;
      }
    }
  }
  const std::vector<std::size_t> parent = reach_parents(pm, roots);
  for (std::size_t i = 0; i < pm.fns.size(); ++i) {
    const ProgramFunction& fn = pm.fns[i];
    if (parent[i] == npos || !fn.facts.is_definition ||
        !fcrlint::detail::starts_with(fn.file, "src/")) {
      continue;
    }
    for (const ThrowSite& ts : fn.facts.throw_sites) {
      if (ts.head.empty()) continue;  // bare rethrow keeps provenance
      std::string head = ts.head;
      bool std_qualified = false;
      if (fcrlint::detail::starts_with(head, "std::")) {
        head = head.substr(5);
        std_qualified = true;
      }
      if (!std_qualified && kStdExceptions.count(head) == 0) continue;
      if (!std_qualified && kStdExceptions.count(head) != 0 &&
          head == "bad_alloc") {
        // fall through: bad_alloc is still a bare std exception
      }
      if (allowed_on_line(pmdetail::allows_of(files, fn.file),
                          "error-provenance", ts.line)) {
        continue;
      }
      out.push_back(
          {fn.file, ts.line, "error-provenance",
           "'throw " + ts.head + "' is reachable from a ThreadPool task "
           "body (" + witness_chain(pm, parent, i) +
               ") — construct fcr::Error (with trial provenance) so the "
               "campaign's failure report stays attributable"});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// v4 path-sensitive rules.
// ---------------------------------------------------------------------------

/// definite-init: a container subscripted (or back()/front()/at()-read) in a
/// function that sizes it on only SOME paths to that read. Flags the flow
/// hazards computed per function by the must-initialized dataflow.
inline std::vector<Finding> check_definite_init(
    const ProgramModel& pm, const std::vector<TreeFile>& files) {
  std::vector<Finding> out;
  for (const ProgramFunction& fn : pm.fns) {
    if (!fn.facts.is_definition ||
        !fcrlint::detail::starts_with(fn.file, "src/")) {
      continue;
    }
    for (const InitHazard& h : fn.facts.init_hazards) {
      if (allowed_on_line(pmdetail::allows_of(files, fn.file),
                          "definite-init", h.line)) {
        continue;
      }
      out.push_back(
          {fn.file, h.line, "definite-init",
           "'" + h.name + "' is read here but sized (resize/assign/"
           "reserve) on only some paths into '" + fn.facts.qualified +
               "' — initialize it on every path before the first read"});
    }
  }
  return out;
}

/// Runs every interprocedural rule (three v3, one v4) over the tree's src/
/// files.
inline std::vector<Finding> analyze_tree(const std::vector<TreeFile>& files) {
  const ProgramModel pm = build_program_model(files);
  std::vector<Finding> out;
  auto append = [&out](std::vector<Finding> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  append(check_rng_lineage(pm, files));
  append(check_hot_path_alloc(pm, files));
  append(check_error_provenance(pm, files));
  append(check_definite_init(pm, files));
  return out;
}

}  // namespace fcrlint::model
