// Unit tests for the fcrlint v4 control-flow layer: per-function CFG
// construction from token streams (tools/fcrlint_cfg.hpp), the generic
// forward-dataflow worklist solver (tools/fcrlint_dataflow.hpp), and the
// definite-init rule built on them. The whole-repo run of every rule is
// ModelRealTree in test_fcrlint_model.cpp.
//
// Test inputs with banned tokens are fixture files or string literals; the
// lexer turns literals into opaque tokens, so this file stays clean under
// fcrlint_tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fcrlint_rules.hpp"

namespace {

namespace cfg = fcrlint::cfg;
namespace dataflow = fcrlint::dataflow;
using fcrlint::Finding;
using fcrlint::lex;
using fcrlint::npos;
using fcrlint::Token;
using fcrlint::TokKind;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(FCRLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// CFG of the FIRST function body in a fixture (the span inside its braces),
/// mirroring how the model layer feeds build_cfg.
cfg::Cfg cfg_of(const std::vector<Token>& t) {
  std::size_t open = npos;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].punct("{")) {
      open = i;
      break;
    }
  }
  EXPECT_NE(open, npos) << "fixture has no function body";
  const std::size_t close = fcrlint::detail::match_forward(t, open, "{", "}");
  EXPECT_NE(close, npos);
  return cfg::build_cfg(t, open + 1, close);
}

/// Index of the nth token whose text matches (for anchoring block queries).
std::size_t tok_idx(const std::vector<Token>& t, const std::string& text,
                    int nth = 0) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == text && nth-- == 0) return i;
  }
  return npos;
}

bool has_succ(const cfg::Cfg& g, std::size_t from, std::size_t to) {
  const auto& s = g.blocks[from].succs;
  return std::find(s.begin(), s.end(), to) != s.end();
}

/// True when some block participates in a cycle (a loop back edge exists).
bool has_cycle(const cfg::Cfg& g) {
  for (std::size_t start = 0; start < g.blocks.size(); ++start) {
    std::vector<std::size_t> work = g.blocks[start].succs;
    std::set<std::size_t> seen;
    while (!work.empty()) {
      const std::size_t b = work.back();
      work.pop_back();
      if (b == start) return true;
      if (!seen.insert(b).second) continue;
      for (const std::size_t s : g.blocks[b].succs) work.push_back(s);
    }
  }
  return false;
}

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::vector<int> lines_of(const std::vector<Finding>& findings,
                          const std::string& rule) {
  std::vector<int> lines;
  for (const Finding& f : findings) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// ----------------------------------------------------------- CFG structure

TEST(Cfg, SwitchFallthroughEdgeExistsAndBreakSevers) {
  const auto t = lex(read_fixture("cfg_switch_fallthrough.cpp.txt"));
  const cfg::Cfg g = cfg_of(t);

  ASSERT_EQ(g.loops.size(), 0u);
  int switches = 0;
  for (const cfg::Guard& gd : g.guard_table) {
    if (gd.kind == cfg::Guard::kSwitch) ++switches;
  }
  EXPECT_EQ(switches, 1);

  // `out = 1` (case 0) falls through into `out += 2` (case 1); anchor on
  // the `out` mentions (case-label constants are structural tokens the
  // builder consumes, so they sit in no block).
  const std::size_t case0 = g.block_of(tok_idx(t, "out", 1));
  const std::size_t case1 = g.block_of(tok_idx(t, "out", 2));
  const std::size_t case2 = g.block_of(tok_idx(t, "out", 3));
  const std::size_t dflt = g.block_of(tok_idx(t, "out", 4));
  ASSERT_NE(case0, npos);
  ASSERT_NE(case1, npos);
  ASSERT_NE(case2, npos);
  ASSERT_NE(dflt, npos);
  EXPECT_TRUE(has_succ(g, case0, case1)) << "fallthrough edge missing";
  // `break` after case 2 must NOT flow into default.
  EXPECT_FALSE(has_succ(g, case2, dflt)) << "break failed to sever the edge";
  EXPECT_FALSE(has_cycle(g));
}

TEST(Cfg, DoWhileBodyPrecedesConditionAndCarriesBackEdge) {
  const auto t = lex(read_fixture("cfg_do_while.cpp.txt"));
  const cfg::Cfg g = cfg_of(t);

  ASSERT_EQ(g.loops.size(), 1u);
  EXPECT_EQ(g.loops[0].kind, cfg::Guard::kDoWhile);
  EXPECT_TRUE(has_cycle(g));

  // The body statement is inside the loop; the trailing return is not.
  const std::size_t body_tok = tok_idx(t, "steps", 1);  // ++steps
  const std::size_t ret_tok = tok_idx(t, "return");
  EXPECT_EQ(g.innermost_loop(body_tok), 0u);
  EXPECT_EQ(g.innermost_loop(ret_tok), npos);
  // The condition tokens live in the loop's cond span, after the body.
  EXPECT_FALSE(g.loops[0].cond.empty());
  EXPECT_GE(g.loops[0].cond.lo, g.loops[0].body.hi);
}

TEST(Cfg, NestedTernariesAreThreeGuardsAndAcyclic) {
  const auto t = lex(read_fixture("cfg_nested_ternary.cpp.txt"));
  const cfg::Cfg g = cfg_of(t);

  int ternaries = 0;
  for (const cfg::Guard& gd : g.guard_table) {
    if (gd.kind == cfg::Guard::kTernary) ++ternaries;
  }
  EXPECT_EQ(ternaries, 3);
  EXPECT_EQ(g.loops.size(), 0u);
  EXPECT_FALSE(has_cycle(g));
}

TEST(Cfg, EarlyReturnAndThrowEdgeToExit) {
  const auto t = lex(read_fixture("cfg_early_exit.cpp.txt"));
  const cfg::Cfg g = cfg_of(t);

  ASSERT_EQ(g.loops.size(), 1u);
  EXPECT_EQ(g.loops[0].kind, cfg::Guard::kFor);
  EXPECT_TRUE(has_cycle(g));

  // Early `return -1` and `throw v` blocks both edge straight to exit.
  const std::size_t early_ret = g.block_of(tok_idx(t, "return"));
  const std::size_t thrower = g.block_of(tok_idx(t, "throw"));
  ASSERT_NE(early_ret, npos);
  ASSERT_NE(thrower, npos);
  EXPECT_TRUE(has_succ(g, early_ret, g.exit));
  EXPECT_TRUE(has_succ(g, thrower, g.exit));

  // The accumulating statement is inside the loop body.
  EXPECT_EQ(g.innermost_loop(tok_idx(t, "acc", 1)), 0u);
}

TEST(Cfg, SiblingLoopsAreTopLevelWithBackEdges) {
  const auto t = lex(read_fixture("cfg_loop_backedge.cpp.txt"));
  const cfg::Cfg g = cfg_of(t);

  ASSERT_EQ(g.loops.size(), 2u);
  EXPECT_TRUE(has_cycle(g));
  std::set<int> kinds;
  for (std::size_t li = 0; li < g.loops.size(); ++li) {
    kinds.insert(g.loops[li].kind);
    EXPECT_EQ(g.enclosing_loop(li), npos);
  }
  EXPECT_EQ(kinds, (std::set<int>{cfg::Guard::kWhile, cfg::Guard::kFor}));

  // Statement attribution: one per loop, the return in neither.
  const std::size_t in_while = g.innermost_loop(tok_idx(t, "acc", 1));
  const std::size_t in_for = g.innermost_loop(tok_idx(t, "acc", 2));
  ASSERT_NE(in_while, npos);
  ASSERT_NE(in_for, npos);
  EXPECT_NE(in_while, in_for);
  EXPECT_EQ(g.innermost_loop(tok_idx(t, "return")), npos);
}

// -------------------------------------------------------- dataflow solver

TEST(Dataflow, MustSetJoinIsPathIntersection) {
  // `a` is assigned on only the then-arm: the intersection join must drop
  // it at the merge point, while the unconditional `b` survives.
  const auto t = lex(
      "int f(int c) {\n"
      "  int a = 0;\n"
      "  int b = 0;\n"
      "  if (c) {\n"
      "    a = 1;\n"
      "  }\n"
      "  b = 2;\n"
      "  return a + b;\n"
      "}\n");
  const cfg::Cfg g = cfg_of(t);
  // Transfer: a block "defines" every identifier ASSIGNED in its spans
  // (ident directly followed by `=`). Declarations with initializers count,
  // which is exactly what makes the pre-branch `a` span not dominate the
  // conditional re-assignment in this toy lattice: we only track the
  // then-arm assignment by seeding from the branch, so anchor on the arms.
  const auto in = dataflow::solve_forward<dataflow::MustSet>(
      g, dataflow::MustSet{},
      [&](std::size_t b, const dataflow::MustSet& fact) {
        dataflow::MustSet out = fact;
        for (const cfg::Span& span : g.blocks[b].spans) {
          for (std::size_t m = span.lo; m + 1 < span.hi; ++m) {
            if (t[m].kind == TokKind::kIdent && t[m + 1].punct("=")) {
              out.insert(t[m].text);
            }
          }
        }
        return out;
      },
      dataflow::must_join);

  const std::size_t ret_blk = g.block_of(tok_idx(t, "return"));
  ASSERT_NE(ret_blk, npos);
  ASSERT_TRUE(in[ret_blk].has_value());
  // `a = 1` sits on the conditional arm only — but `int a = 0` assigned it
  // unconditionally first, so it IS in the must-set; strip the fixture to
  // the conditional-only case via a name assigned nowhere else.
  EXPECT_EQ(in[ret_blk]->count("b"), 1u);
  EXPECT_EQ(in[ret_blk]->count("a"), 1u);  // unconditional declaration

  // Now the genuinely conditional name: re-lex without the declarations.
  const auto t2 = lex(
      "void g(int c) {\n"
      "  if (c) {\n"
      "    only_then = 1;\n"
      "  }\n"
      "  after = 2;\n"
      "  use(only_then, after);\n"
      "}\n");
  const cfg::Cfg g2 = cfg_of(t2);
  const auto in2 = dataflow::solve_forward<dataflow::MustSet>(
      g2, dataflow::MustSet{},
      [&](std::size_t b, const dataflow::MustSet& fact) {
        dataflow::MustSet out = fact;
        for (const cfg::Span& span : g2.blocks[b].spans) {
          for (std::size_t m = span.lo; m + 1 < span.hi; ++m) {
            if (t2[m].kind == TokKind::kIdent && t2[m + 1].punct("=")) {
              out.insert(t2[m].text);
            }
          }
        }
        return out;
      },
      dataflow::must_join);
  const std::size_t use_blk = g2.block_of(tok_idx(t2, "use"));
  ASSERT_NE(use_blk, npos);
  ASSERT_TRUE(in2[use_blk].has_value());
  EXPECT_EQ(in2[use_blk]->count("only_then"), 0u) << "intersection broken";
  EXPECT_EQ(in2[use_blk]->count("after"), 0u)
      << "same-block kill ordering: `after` is assigned in the use block "
         "itself, so it must not be in the block-ENTRY fact";
}

/// A second lattice for the generic solver: [min, max] call counts since
/// entry, join = interval hull, addition saturating at kCountSaturated so
/// the lattice has finite height even under back edges.
constexpr int kCountSaturated = 64;

struct CountRange {
  int min = 0;
  int max = 0;
  friend bool operator==(const CountRange&, const CountRange&) = default;
};

TEST(Dataflow, CountRangeHullsBranchesAndSaturatesLoops) {
  auto count_solver = [](const std::vector<Token>& t, const cfg::Cfg& g,
                         const std::string& needle) {
    const auto in = dataflow::solve_forward<CountRange>(
        g, CountRange{},
        [&](std::size_t b, CountRange fact) {
          int n = 0;
          for (const cfg::Span& span : g.blocks[b].spans) {
            for (std::size_t m = span.lo; m < span.hi; ++m) {
              if (t[m].text == needle) ++n;
            }
          }
          fact.min = std::min(fact.min + n, kCountSaturated);
          fact.max = std::min(fact.max + n, kCountSaturated);
          return fact;
        },
        [](const CountRange& a, const CountRange& b) {
          return CountRange{std::min(a.min, b.min), std::max(a.max, b.max)};
        });
    return in[g.exit].has_value() ? *in[g.exit] : CountRange{};
  };

  // Diamond: one branch draws, the other does not -> hull [0, 1].
  const auto t1 = lex(
      "void f(bool c) {\n"
      "  if (c) {\n"
      "    draw();\n"
      "  } else {\n"
      "    skip();\n"
      "  }\n"
      "  done();\n"
      "}\n");
  const cfg::Cfg g1 = cfg_of(t1);
  const CountRange r1 = count_solver(t1, g1, "draw");
  EXPECT_EQ(r1.min, 0);
  EXPECT_EQ(r1.max, 1);

  // Straight line: both paths identical -> exact [2, 2].
  const auto t2 = lex("void f() {\n  draw();\n  draw();\n}\n");
  const cfg::Cfg g2 = cfg_of(t2);
  const CountRange r2 = count_solver(t2, g2, "draw");
  EXPECT_EQ(r2.min, 2);
  EXPECT_EQ(r2.max, 2);

  // Loop: the back edge accumulates until the saturation rail, proving the
  // solver terminates on cyclic graphs instead of diverging.
  const auto t3 = lex(
      "void f(int n) {\n"
      "  while (n > 0) {\n"
      "    draw();\n"
      "    --n;\n"
      "  }\n"
      "}\n");
  const cfg::Cfg g3 = cfg_of(t3);
  const CountRange r3 = count_solver(t3, g3, "draw");
  EXPECT_EQ(r3.min, 0);  // zero-trip path
  EXPECT_EQ(r3.max, kCountSaturated);
}

// ----------------------------------------------------------- definite-init

TEST(DefiniteInit, FlagsReadsSizedOnOnlySomePaths) {
  const auto findings =
      fcrlint::lint_tree({{"src/sim/bad_definite_init.cpp",
                           read_fixture("bad_definite_init.cpp.txt")}});
  EXPECT_EQ(lines_of(findings, "definite-init"), (std::vector<int>{18, 27}));
}

TEST(DefiniteInit, AllPathSizingAndGuardsStayQuiet) {
  const auto findings =
      fcrlint::lint_tree({{"src/sim/good_definite_init.cpp",
                           read_fixture("good_definite_init.cpp.txt")}});
  EXPECT_EQ(count_rule(findings, "definite-init"), 0);
}

}  // namespace
