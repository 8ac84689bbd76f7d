// Unit tests for the fcrlint v2 engine: the token lexer
// (tools/fcrlint_lexer.hpp), every rule in tools/fcrlint_rules.hpp — the six
// ported ones plus layering, fp-accumulate, lock-discipline, rng-flow — the
// allow-annotation grammar, the SARIF serializer, and end-to-end
// lint_file/lint_tree runs over the fixtures in tests/fcrlint/.
//
// Test inputs that contain banned tokens are built as C++ string literals;
// the lexer turns literals into opaque tokens, so this file itself stays
// clean under the tree-wide fcrlint_tree test.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fcrlint_rules.hpp"
#include "fcrlint_sarif.hpp"

namespace {

using fcrlint::Finding;
using fcrlint::lex;
using fcrlint::lint_file;
using fcrlint::lint_tree;
using fcrlint::Token;
using fcrlint::TokKind;

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
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
  return lines;
}

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(FCRLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// -------------------------------------------------------------------- lexer

TEST(FcrlintLexer, TokenKindsAndLines) {
  const auto toks = lex("int x = 42;  // trailing\n/* block */ double y;\n");
  ASSERT_EQ(toks.size(), 10u);
  EXPECT_TRUE(toks[0].ident("int"));
  EXPECT_TRUE(toks[1].ident("x"));
  EXPECT_TRUE(toks[2].punct("="));
  EXPECT_TRUE(toks[3].is(TokKind::kNumber, "42"));
  EXPECT_TRUE(toks[4].punct(";"));
  EXPECT_EQ(toks[5].kind, TokKind::kLineComment);
  EXPECT_EQ(toks[5].line, 1);
  EXPECT_EQ(toks[6].kind, TokKind::kBlockComment);
  EXPECT_EQ(toks[6].line, 2);
  EXPECT_TRUE(toks[7].ident("double"));
  EXPECT_EQ(toks[7].line, 2);
}

TEST(FcrlintLexer, RawStringsAreSingleOpaqueTokens) {
  const auto toks =
      lex("auto s = R\"tag(has \" and )\" and rand() inside)tag\"; int a;\n");
  ASSERT_GE(toks.size(), 5u);
  EXPECT_TRUE(toks[0].ident("auto"));
  EXPECT_EQ(toks[3].kind, TokKind::kRawString);
  EXPECT_NE(toks[3].text.find("rand() inside"), std::string::npos);
  EXPECT_TRUE(toks[4].punct(";"));
  EXPECT_TRUE(toks[5].ident("int"));
}

TEST(FcrlintLexer, EncodingPrefixesMergeWithLiterals) {
  const auto toks = lex("auto a = u8\"x\"; auto c = L'y';\n");
  ASSERT_EQ(toks.size(), 10u);
  EXPECT_TRUE(toks[3].is(TokKind::kString, "u8\"x\""));
  EXPECT_TRUE(toks[8].is(TokKind::kChar, "L'y'"));
}

TEST(FcrlintLexer, SplicedLineCommentSwallowsContinuation) {
  const auto toks = lex("// first \\\nstill comment\nint z;\n");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].kind, TokKind::kLineComment);
  EXPECT_NE(toks[0].text.find("still comment"), std::string::npos);
  EXPECT_TRUE(toks[1].ident("int"));
  EXPECT_EQ(toks[1].line, 3);
}

TEST(FcrlintLexer, MultiLineBlockCommentCountsLines) {
  const auto toks = lex("/* a\n b\n c */ int z;\n");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].kind, TokKind::kBlockComment);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_TRUE(toks[1].ident("int"));
  EXPECT_EQ(toks[1].line, 3);
}

TEST(FcrlintLexer, MaximalMunchPunctuation) {
  const auto toks = lex("a<<=b->*c::d+=e\n");
  ASSERT_EQ(toks.size(), 9u);
  EXPECT_TRUE(toks[1].punct("<<="));
  EXPECT_TRUE(toks[3].punct("->*"));
  EXPECT_TRUE(toks[5].punct("::"));
  EXPECT_TRUE(toks[7].punct("+="));
}

TEST(FcrlintLexer, PpNumbersWithSeparatorsAndExponents) {
  const auto toks = lex("1'000'000 0x1p-3 1e+9\n");
  ASSERT_EQ(toks.size(), 3u);
  for (const Token& t : toks) EXPECT_EQ(t.kind, TokKind::kNumber);
  EXPECT_EQ(toks[0].text, "1'000'000");
  EXPECT_EQ(toks[1].text, "0x1p-3");
}

TEST(FcrlintLexer, HeaderNamesOnlyAfterInclude) {
  const auto toks = lex(
      "#include <bits/stdc++.h>\n"
      "#include \"util/x.hpp\"\n"
      "int a = b < c > d;\n");
  std::vector<std::string> headers;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kHeaderName) headers.push_back(t.text);
  }
  EXPECT_EQ(headers, (std::vector<std::string>{"<bits/stdc++.h>",
                                               "\"util/x.hpp\""}));
}

TEST(FcrlintLexer, DirectiveHashIsMarked) {
  const auto toks = lex("#pragma once\nint a[1]; int b = a # 0;\n");
  ASSERT_GE(toks.size(), 2u);
  EXPECT_TRUE(toks[0].punct("#"));
  EXPECT_TRUE(toks[0].directive);
  // The mid-line hash (ill-formed C++, but the lexer must not care) is not
  // a directive.
  for (std::size_t i = 1; i < toks.size(); ++i) {
    if (toks[i].punct("#")) {
      EXPECT_FALSE(toks[i].directive);
    }
  }
}

TEST(FcrlintLexer, EscapedNewlineContinuesStringLiteral) {
  const auto toks = lex("const char* s = \"a\\\nb\";\nint after;\n");
  std::size_t after = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].ident("after")) after = i;
  }
  ASSERT_NE(after, 0u);
  EXPECT_EQ(toks[after].line, 3);
}

// -------------------------------------------------------------- determinism

TEST(FcrlintDeterminism, FlagsEntropyAndWallClockSources) {
  const std::string src =
      "#include <cstdlib>\n"
      "long f() {\n"
      "  std::random_device rd;\n"                 // line 3
      "  std::srand(7);\n"                         // line 4
      "  long t = time(nullptr);\n"                // line 5
      "  auto n = std::chrono::steady_clock::now();\n"  // line 6
      "  (void)n;\n"
      "  return std::rand() + t + rd();\n"         // line 8: rand (rd( is fine)
      "}\n";
  const auto findings = lint_file("src/sim/clocky.cpp", src);
  EXPECT_EQ(lines_of(findings, "determinism"), (std::vector<int>{3, 4, 5, 6, 8}));
}

TEST(FcrlintDeterminism, SkipsCommentsStringsAndSimilarIdentifiers) {
  const std::string src =
      "// std::rand() and time(nullptr) discussed in prose\n"
      "const char* s = \"random_device\";\n"
      "std::uint64_t run_time(int x);\n"   // suffix of banned token: fine
      "int timestamp = 0;\n"               // prefix: fine
      "double now_estimate(int);\n"        // 'now' not followed by '('
      "int f() { return timestamp; }\n";
  const auto findings = lint_file("src/core/ok.cpp", src);
  EXPECT_EQ(count_rule(findings, "determinism"), 0);
}

TEST(FcrlintDeterminism, MultiLineBlockCommentIsOpaque) {
  // The v1 line scanner masked per line; a banned token on the second line
  // of a block comment was a blind spot.
  const std::string src =
      "/* discussion spanning lines:\n"
      "   std::random_device and time(nullptr) both banned in code\n"
      "   but fine here */\n"
      "int f() { return 0; }\n";
  EXPECT_EQ(count_rule(lint_file("src/core/doc.cpp", src), "determinism"), 0);
}

TEST(FcrlintDeterminism, RawStringIsOpaque) {
  const std::string src =
      "const char* doc = R\"(calls time(nullptr) and rand())\";\n";
  EXPECT_EQ(count_rule(lint_file("src/core/raw.cpp", src), "determinism"), 0);
}

TEST(FcrlintDeterminism, ExemptsRngImplementationAndNonSrcTrees) {
  const std::string src = "int f() { std::random_device rd; return rd(); }\n";
  EXPECT_EQ(count_rule(lint_file("src/util/rng.cpp", src), "determinism"), 0);
  EXPECT_EQ(count_rule(lint_file("src/util/rng.hpp", src), "determinism"), 0);
  EXPECT_EQ(count_rule(lint_file("tests/test_x.cpp", src), "determinism"), 0);
  EXPECT_EQ(count_rule(lint_file("src/radio/x.cpp", src), "determinism"), 1);
}

TEST(FcrlintDeterminism, AllowAnnotationSuppressesLine) {
  const std::string allow_same_line =
      "long t = time(nullptr);  // FCRLINT_ALLOW(determinism): fixture\n";
  EXPECT_EQ(count_rule(lint_file("src/sim/a.cpp", allow_same_line),
                       "determinism"),
            0);
  const std::string allow_line_above =
      "// FCRLINT_ALLOW(determinism): fixture needs the wall clock\n"
      "long t = time(nullptr);\n";
  EXPECT_EQ(count_rule(lint_file("src/sim/b.cpp", allow_line_above),
                       "determinism"),
            0);
  const std::string allow_too_far =
      "// FCRLINT_ALLOW(determinism): too far away to apply\n"
      "int unrelated = 0;\n"
      "long t = time(nullptr);\n";
  EXPECT_EQ(count_rule(lint_file("src/sim/c.cpp", allow_too_far),
                       "determinism"),
            1);
}

TEST(FcrlintDeterminism, AllowInsideBlockCommentUsesMarkerLine) {
  // The marker sits on the block comment's SECOND physical line, directly
  // above the offending code — exact line attribution inside multi-line
  // comments is what the lexer port bought us.
  const std::string src =
      "/* explanation first,\n"
      "   FCRLINT_ALLOW(determinism): fixture needs the wall clock */\n"
      "long t = time(nullptr);\n";
  EXPECT_EQ(count_rule(lint_file("src/sim/d.cpp", src), "determinism"), 0);
}

// --------------------------------------------------------------- sinr-float

TEST(FcrlintSinrFloat, FlagsFloatOnlyUnderSinr) {
  const std::string src = "float narrow(float x) { return x; }\n";
  EXPECT_EQ(count_rule(lint_file("src/sinr/margin.cpp", src), "sinr-float"), 2);
  EXPECT_EQ(count_rule(lint_file("src/geom/margin.cpp", src), "sinr-float"), 0);
}

TEST(FcrlintSinrFloat, TokenBoundariesRespected) {
  const std::string src =
      "double floater = 1.0;\n"
      "int float_count = 2;\n"
      "// float in a comment\n"
      "double f() { return floater + float_count; }\n";
  EXPECT_EQ(count_rule(lint_file("src/sinr/ok.cpp", src), "sinr-float"), 0);
}

// --------------------------------------------------------------- ensure-arg

TEST(FcrlintEnsureArg, FlagsValidationFreeApiImplementations) {
  const std::string bare = "namespace fcr { int api(int x) { return x; } }\n";
  const auto findings = lint_file("src/core/api.cpp", bare);
  EXPECT_EQ(count_rule(findings, "ensure-arg"), 1);
  // Headers and out-of-src files are out of scope.
  EXPECT_EQ(count_rule(lint_file("src/core/api.hpp", bare), "ensure-arg"), 0);
  EXPECT_EQ(count_rule(lint_file("bench/api.cpp", bare), "ensure-arg"), 0);
}

TEST(FcrlintEnsureArg, ValidationOrReasonedAllowSatisfiesRule) {
  const std::string validated =
      "#include \"util/check.hpp\"\n"
      "namespace fcr { int api(int x) {\n"
      "  FCR_ENSURE_ARG(x >= 0, \"x\");\n"
      "  return x; } }\n";
  EXPECT_EQ(count_rule(lint_file("src/core/api.cpp", validated), "ensure-arg"),
            0);
  const std::string allowed =
      "// FCRLINT_ALLOW(ensure-arg): pure arithmetic, every input valid\n"
      "namespace fcr { int api(int x) { return x; } }\n";
  EXPECT_EQ(count_rule(lint_file("src/core/api.cpp", allowed), "ensure-arg"),
            0);
}

// -------------------------------------------------------------- pragma-once

TEST(FcrlintPragmaOnce, RequiresPragmaInHeaders) {
  const std::string guarded = "#ifndef X\n#define X\nint f();\n#endif\n";
  EXPECT_EQ(count_rule(lint_file("src/geom/g.hpp", guarded), "pragma-once"), 1);
  const std::string pragmad = "// docs\n#pragma once\nint f();\n";
  EXPECT_EQ(count_rule(lint_file("src/geom/g.hpp", pragmad), "pragma-once"), 0);
  // Non-headers are out of scope, and a pragma mentioned in a comment does
  // not count as one.
  EXPECT_EQ(count_rule(lint_file("src/geom/g.cpp", guarded), "pragma-once"), 0);
  const std::string commented = "// #pragma once\nint f();\n";
  EXPECT_EQ(count_rule(lint_file("src/geom/h.hpp", commented), "pragma-once"),
            1);
}

// ---------------------------------------------------------- include-hygiene

TEST(FcrlintIncludeHygiene, FlagsRelativeBitsAndDeprecatedC) {
  const std::string src =
      "#include <math.h>\n"
      "#include <bits/stdc++.h>\n"
      "#include \"../core/theory.hpp\"\n"
      "#include <cmath>\n"
      "#include \"util/check.hpp\"\n";
  const auto findings = lint_file("tools/x.cpp", src);
  EXPECT_EQ(lines_of(findings, "include-hygiene"), (std::vector<int>{1, 2, 3}));
  EXPECT_NE(findings[0].message.find("<cmath>"), std::string::npos);
}

TEST(FcrlintIncludeHygiene, ProseAboutHeadersIsNotAnInclude) {
  // v1 matched substrings on masked lines; the v2 rule only looks at real
  // header-name tokens, so comments mentioning deprecated headers pass.
  const std::string src =
      "// prefer <cmath> over <math.h>, and never <bits/stdc++.h>\n"
      "#include <cmath>\n";
  EXPECT_EQ(count_rule(lint_file("tools/ok.cpp", src), "include-hygiene"), 0);
}

// ------------------------------------------------------------- allow-syntax

TEST(FcrlintAllowSyntax, MalformedAnnotationsAreFindings) {
  // These markers live inside C++ string literals, which lex into opaque
  // tokens — so this test file stays clean under the tree-wide scan while
  // the lint_file inputs exercise the malformed shapes.
  const std::string unknown_rule =
      "// FCRLINT_ALLOW(no-such-rule): reason\nint f();\n";
  EXPECT_EQ(count_rule(lint_file("src/core/a.cpp", unknown_rule),
                       "allow-syntax"),
            1);
  const std::string no_reason = "// FCRLINT_ALLOW(determinism):\nint f();\n";
  EXPECT_EQ(count_rule(lint_file("src/core/b.cpp", no_reason), "allow-syntax"),
            1);
  const std::string no_colon = "// FCRLINT_ALLOW(determinism) oops\nint f();\n";
  EXPECT_EQ(count_rule(lint_file("src/core/c.cpp", no_colon), "allow-syntax"),
            1);
  const std::string fine =
      "// FCRLINT_ALLOW(determinism): legitimate documented reason\nint f();\n";
  EXPECT_EQ(count_rule(lint_file("src/core/d.cpp", fine), "allow-syntax"), 0);
}

TEST(FcrlintAllowSyntax, MarkersInsideStringLiteralsAreIgnored) {
  const std::string src =
      "const char* help = \"suppress with FCRLINT_ALLOW(<rule>): <reason>\";\n";
  EXPECT_EQ(count_rule(lint_file("src/core/help.cpp", src), "allow-syntax"), 0);
}

TEST(FcrlintAllowSyntax, MarkerOnLaterBlockCommentLineGetsThatLine) {
  const std::string src =
      "/* line one\n"
      "   line two\n"
      "   FCRLINT_ALLOW(bogus-rule): with reason */\n"
      "int f();\n";
  const auto findings = lint_file("src/core/late.cpp", src);
  EXPECT_EQ(lines_of(findings, "allow-syntax"), (std::vector<int>{3}));
}

// ----------------------------------------------------------------- layering

TEST(FcrlintLayering, FlagsUpwardIncludes) {
  const std::string src =
      "#pragma once\n"
      "#include \"util/check.hpp\"\n"   // util(0) < sinr: fine
      "#include \"stats/welford.hpp\"\n"  // stats(1) < sinr: fine
      "#include \"sim/runner.hpp\"\n"   // sim above sinr: finding
      "#include \"params.hpp\"\n";      // bare sibling: fine
  const auto findings = lint_file("src/sinr/x.hpp", src);
  EXPECT_EQ(lines_of(findings, "layering"), (std::vector<int>{4}));
}

TEST(FcrlintLayering, UmbrellaHeaderIsTheTopLayer) {
  const std::string from_algorithms =
      "#pragma once\n#include \"fadingcr.hpp\"\n";
  EXPECT_EQ(count_rule(lint_file("src/algorithms/a.hpp", from_algorithms),
                       "layering"),
            1);
  // Files directly under src/ sit above every layer and may include
  // anything.
  const std::string umbrella =
      "#pragma once\n#include \"ext/x.hpp\"\n#include \"sim/runner.hpp\"\n";
  EXPECT_EQ(count_rule(lint_file("src/fadingcr.hpp", umbrella), "layering"), 0);
}

TEST(FcrlintLayering, UnknownDirectoryIsAFinding) {
  const std::string src = "#pragma once\nint f();\n";
  const auto findings = lint_file("src/newthing/x.hpp", src);
  EXPECT_EQ(count_rule(findings, "layering"), 1);
  EXPECT_NE(findings[0].message.find("kLayerOrder"), std::string::npos);
}

TEST(FcrlintLayering, SummaryAndRationaleNameEveryLayer) {
  // --list-rules and --explain print the layer order from prose; it must
  // match the enforced kLayerOrder entry for entry.
  const std::string order = fcrlint::detail::layer_order_string();
  const auto rule =
      std::find_if(fcrlint::kRules.begin(), fcrlint::kRules.end(),
                   [](const fcrlint::RuleMeta& r) { return r.id == "layering"; });
  ASSERT_NE(rule, fcrlint::kRules.end());
  const fcrlint::RuleExplanation* explanation =
      fcrlint::explain_rule("layering");
  ASSERT_NE(explanation, nullptr);
  for (const std::string_view text : {rule->summary, explanation->rationale}) {
    EXPECT_NE(text.find(order), std::string_view::npos)
        << "'" << text << "' does not give the layer order " << order;
  }
}

TEST(FcrlintLayering, AllowSuppressesUpwardEdge) {
  const std::string src =
      "#pragma once\n"
      "// FCRLINT_ALLOW(layering): transitional, tracked in ROADMAP\n"
      "#include \"sim/runner.hpp\"\n";
  EXPECT_EQ(count_rule(lint_file("src/sinr/x.hpp", src), "layering"), 0);
}

TEST(FcrlintLayering, TreeWideCycleDetection) {
  // Bare names resolve to the including file's directory, so this is a
  // same-layer cycle the per-file rule cannot see.
  const std::vector<fcrlint::FileInput> cyclic = {
      {"src/sim/x.hpp", "#pragma once\n#include \"y.hpp\"\n"},
      {"src/sim/y.hpp", "#pragma once\n#include \"x.hpp\"\n"},
  };
  const auto findings = lint_tree(cyclic);
  ASSERT_EQ(count_rule(findings, "layering"), 1);
  for (const Finding& f : findings) {
    if (f.rule == "layering") {
      EXPECT_NE(f.message.find("include cycle"), std::string::npos);
    }
  }
  const std::vector<fcrlint::FileInput> acyclic = {
      {"src/sim/x.hpp", "#pragma once\n#include \"y.hpp\"\n"},
      {"src/sim/y.hpp", "#pragma once\n#include \"util/check.hpp\"\n"},
      {"src/util/check.hpp", "#pragma once\nint f();\n"},
  };
  EXPECT_EQ(count_rule(lint_tree(acyclic), "layering"), 0);
}

TEST(FcrlintLayering, CycleThroughExtLayerIsFound) {
  // Both halves are per-file clean (ext -> ext is a legal same-layer edge);
  // the tree-wide DFS reports the back edge exactly once.
  const std::vector<fcrlint::FileInput> files = {
      {"src/ext/cycle_a.hpp", read_fixture("cycle_ext_a.hpp.txt")},
      {"src/ext/cycle_b.hpp", read_fixture("cycle_ext_b.hpp.txt")},
  };
  const auto findings = lint_tree(files);
  ASSERT_EQ(count_rule(findings, "layering"), 1);
  for (const Finding& f : findings) {
    if (f.rule == "layering") {
      EXPECT_NE(f.message.find("include cycle"), std::string::npos);
      EXPECT_NE(f.message.find("cycle_a.hpp"), std::string::npos);
      EXPECT_NE(f.message.find("cycle_b.hpp"), std::string::npos);
    }
  }
}

TEST(FcrlintLayering, SelfIncludeIsTheSmallestCycle) {
  const std::vector<fcrlint::FileInput> files = {
      {"src/sim/self_include.hpp", read_fixture("self_include.hpp.txt")},
  };
  const auto findings = lint_tree(files);
  const auto lines = lines_of(findings, "layering");
  ASSERT_EQ(lines, (std::vector<int>{6}));
  for (const Finding& f : findings) {
    if (f.rule == "layering") {
      EXPECT_NE(f.message.find("include cycle"), std::string::npos);
    }
  }
}

TEST(FcrlintLayering, ParentRelativeIncludesStayOutOfTheGraph) {
  // "../"-includes are an include-hygiene finding; they never resolve to a
  // graph node, so the apparent a <-> b cycle through the parent-relative
  // spelling must NOT be reported as one.
  const std::vector<fcrlint::FileInput> files = {
      {"src/sim/a.hpp",
       "#pragma once\n"
       "// FCRLINT_ALLOW(include-hygiene): fixture exercises the edge case\n"
       "#include \"../core/b.hpp\"\n"},
      {"src/core/b.hpp", "#pragma once\n#include \"sim/a.hpp\"\n"},
  };
  const auto findings = lint_tree(files);
  EXPECT_EQ(count_rule(findings, "layering"), 0);
  const std::vector<fcrlint::FileInput> unallowed = {
      {"src/sim/a.hpp", "#pragma once\n#include \"../core/b.hpp\"\n"},
      {"src/core/b.hpp", "#pragma once\n#include \"sim/a.hpp\"\n"},
  };
  EXPECT_EQ(count_rule(lint_tree(unallowed), "include-hygiene"), 1);
  EXPECT_EQ(count_rule(lint_tree(unallowed), "layering"), 0);
}

// ------------------------------------------------------------ fp-accumulate

TEST(FcrlintFpAccumulate, FlagsStdReducersAndRawLoops) {
  const std::string src =
      "#include <numeric>\n"
      "double f(const std::vector<double>& xs) {\n"
      "  double s = 0.0;\n"
      "  for (const double x : xs) s += x;\n"                       // line 4
      "  return s + std::accumulate(xs.begin(), xs.end(), 0.0);\n"  // line 5
      "}\n";
  const auto sinr = lint_file("src/sinr/sum.hpp", src);
  EXPECT_EQ(lines_of(sinr, "fp-accumulate"), (std::vector<int>{4, 5}));
  // Same content in sim/ is in scope; in core/ and in the blessed
  // accumulate.hpp it is not.
  EXPECT_EQ(count_rule(lint_file("src/sim/sum.hpp", src), "fp-accumulate"), 2);
  EXPECT_EQ(count_rule(lint_file("src/core/sum.hpp", src), "fp-accumulate"), 0);
  EXPECT_EQ(count_rule(lint_file("src/sinr/accumulate.hpp", src),
                       "fp-accumulate"),
            0);
}

TEST(FcrlintFpAccumulate, IntegerAndOutOfLoopSumsAreFine) {
  const std::string src =
      "double g(const std::vector<double>& xs) {\n"
      "  std::size_t n = 0;\n"
      "  for (const double x : xs) { if (x > 0.0) n += 1; }\n"  // int: fine
      "  double once = 0.0;\n"
      "  once += 1.5;\n"  // not in a loop: fine
      "  return once + static_cast<double>(n);\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_file("src/sinr/ok.hpp", src), "fp-accumulate"), 0);
}

TEST(FcrlintFpAccumulate, SecondDeclaratorAndSubscriptsAreTracked) {
  const std::string src =
      "void h(const double* v, std::size_t n) {\n"
      "  double sx = 0.0, sy = 0.0;\n"
      "  double acc[4] = {};\n"
      "  for (std::size_t i = 0; i < n; ++i) {\n"
      "    sx += v[i];\n"          // line 5
      "    sy += v[i];\n"          // line 6: second declarator
      "    acc[i % 4] += v[i];\n"  // line 7: through a subscript
      "  }\n"
      "}\n";
  const auto findings = lint_file("src/sinr/decl.hpp", src);
  EXPECT_EQ(lines_of(findings, "fp-accumulate"), (std::vector<int>{5, 6, 7}));
}

TEST(FcrlintFpAccumulate, BracelessLoopBodyAndAllow) {
  const std::string braceless =
      "double f(const double* v, std::size_t n) {\n"
      "  double s = 0.0;\n"
      "  std::size_t i = 0;\n"
      "  while (i < n) s += v[i++];\n"
      "  return s;\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_file("src/sinr/w.hpp", braceless),
                       "fp-accumulate"),
            1);
  const std::string allowed =
      "double f(const double* v, std::size_t n) {\n"
      "  double s = 0.0;\n"
      "  for (std::size_t i = 0; i < n; ++i)\n"
      "    s += v[i];  // FCRLINT_ALLOW(fp-accumulate): test fixture\n"
      "  return s;\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_file("src/sinr/w.hpp", allowed), "fp-accumulate"),
            0);
}

// ---------------------------------------------------------- lock-discipline

TEST(FcrlintLockDiscipline, FlagsBareStdPrimitives) {
  const std::string src =
      "struct S {\n"
      "  std::mutex m_;\n"                     // line 2
      "  std::condition_variable cv_;\n"       // line 3
      "  std::condition_variable_any acv_;\n"  // line 4
      "};\n";
  const auto findings = lint_file("src/sim/s.hpp", src);
  EXPECT_EQ(lines_of(findings, "lock-discipline"),
            (std::vector<int>{2, 3, 4}));
  // Out of src/: no opinion.
  EXPECT_EQ(count_rule(lint_file("tests/s.hpp", src), "lock-discipline"), 0);
}

TEST(FcrlintLockDiscipline, AliasAndWaitSignatureAreNotDeclarations) {
  const std::string src =
      "using CondVar = std::condition_variable_any;\n"
      "void wait_on(std::condition_variable_any& cv);\n";
  EXPECT_EQ(count_rule(lint_file("src/util/t.hpp", src), "lock-discipline"),
            0);
}

TEST(FcrlintLockDiscipline, UnreferencedMutexNeedsAnAnnotation) {
  const std::string orphan =
      "struct S {\n"
      "  Mutex m_;\n"
      "  int data_ = 0;\n"
      "};\n";
  const auto findings = lint_file("src/sim/orphan.hpp", orphan);
  EXPECT_EQ(count_rule(findings, "lock-discipline"), 1);
  for (const Finding& f : findings) {
    if (f.rule == "lock-discipline") {
      EXPECT_NE(f.message.find("FCR_GUARDED_BY"), std::string::npos);
    }
  }
  const std::string guarded =
      "struct S {\n"
      "  Mutex m_;\n"
      "  int data_ FCR_GUARDED_BY(m_) = 0;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_file("src/sim/guarded.hpp", guarded),
                       "lock-discipline"),
            0);
  const std::string required =
      "struct S {\n"
      "  void push() FCR_REQUIRES(m_);\n"
      "  Mutex m_;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_file("src/sim/req.hpp", required),
                       "lock-discipline"),
            0);
}

TEST(FcrlintLockDiscipline, AllowSuppresses) {
  const std::string src =
      "struct S {\n"
      "  // FCRLINT_ALLOW(lock-discipline): wrapper implementation detail\n"
      "  std::mutex m_;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_file("src/util/w.hpp", src), "lock-discipline"),
            0);
}

// ----------------------------------------------------------------- rng-flow

TEST(FcrlintRngFlow, FlagsCopiesOutOfSharedReferences) {
  const std::string src =
      "void f(const Rng& shared) {\n"
      "  Rng copied = shared;\n"       // line 2: copy out of the reference
      "  Rng built(shared);\n"         // line 3: copy-construction
      "  Rng child = shared.split(1);\n"  // split: fine
      "  const Rng& alias = shared;\n"    // reference bind: fine
      "  use(child, alias);\n"
      "}\n";
  const auto findings = lint_file("src/sim/copy.cpp", src);
  EXPECT_EQ(lines_of(findings, "rng-flow"), (std::vector<int>{2, 3}));
}

TEST(FcrlintRngFlow, FlagsByValueLambdaCaptures) {
  const std::string src =
      "void f(const Rng& shared) {\n"
      "  Rng child = shared.split(1);\n"
      "  auto bad = [child](std::size_t i) { return child.seed() + i; };\n"
      "  auto good_ref = [&child](std::size_t i) { return i; };\n"
      "  auto good_init = [c = child.split(2)](std::size_t i) { return i; };\n"
      "  auto good_default = [&](std::size_t i) { return i; };\n"
      "}\n";
  const auto findings = lint_file("src/sim/cap.cpp", src);
  EXPECT_EQ(lines_of(findings, "rng-flow"), (std::vector<int>{3}));
}

TEST(FcrlintRngFlow, ByValueOwnershipTransferStaysLegal) {
  // The pervasive repo idiom: constructors take Rng BY VALUE (ownership
  // transfer of an already-split stream) and store it in a member.
  const std::string src =
      "struct AlohaNode {\n"
      "  AlohaNode(double p, Rng rng) : p_(p), rng_(rng) {}\n"
      "  double p_;\n"
      "  Rng rng_;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_file("src/algorithms/aloha.hpp", src), "rng-flow"),
            0);
}

TEST(FcrlintRngFlow, SubscriptsAndAttributesAreNotCaptureLists) {
  const std::string src =
      "void f(const Rng& shared, std::vector<Rng>& pool) {\n"
      "  [[maybe_unused]] int x = 0;\n"
      "  use(pool[0], shared);\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_file("src/sim/sub.cpp", src), "rng-flow"), 0);
}

TEST(FcrlintRngFlow, ScopeAndAllow) {
  const std::string src =
      "void f(const Rng& shared) {\n"
      "  Rng copied = shared;\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_file("tests/t.cpp", src), "rng-flow"), 0);
  EXPECT_EQ(count_rule(lint_file("src/util/rng.hpp", src), "rng-flow"), 0);
  const std::string allowed =
      "void f(const Rng& shared) {\n"
      "  // FCRLINT_ALLOW(rng-flow): deliberate replay of the same stream\n"
      "  Rng copied = shared;\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_file("src/sim/ok.cpp", allowed), "rng-flow"), 0);
}

// --------------------------------------------------------- error-discipline

TEST(FcrlintErrorDiscipline, FlagsSwallowingCatchHandlers) {
  const std::string src =
      "void f() {\n"
      "  try { g(); } catch (const std::exception&) {\n"
      "  }\n"
      "  try { g(); } catch (...) { cleanup(); }\n"
      "}\n";
  const auto findings = lint_file("src/sim/swallow.cpp", src);
  EXPECT_EQ(lines_of(findings, "error-discipline"), (std::vector<int>{2, 4}));
}

TEST(FcrlintErrorDiscipline, HandledBodiesPass) {
  const std::string src =
      "void f() {\n"
      "  try { g(); } catch (const std::exception& e) { throw; }\n"
      "  try { g(); } catch (const std::exception& e) {\n"
      "    throw Error(ErrorCategory::kEngine, e.what());\n"
      "  }\n"
      "  try { g(); } catch (...) {\n"
      "    log.record(TrialFailure{t, 1, ErrorCategory::kEngine, \"x\"});\n"
      "  }\n"
      "  try { g(); } catch (...) { err = std::current_exception(); }\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_file("src/sim/handled.cpp", src),
                       "error-discipline"),
            0);
}

TEST(FcrlintErrorDiscipline, ScopeAndAllow) {
  const std::string src =
      "void f() {\n"
      "  try { g(); } catch (...) {\n"
      "  }\n"
      "}\n";
  // Out of scope: tests and tools may swallow freely.
  EXPECT_EQ(count_rule(lint_file("tests/t.cpp", src), "error-discipline"), 0);
  EXPECT_EQ(count_rule(lint_file("tools/t.cpp", src), "error-discipline"), 0);
  const std::string allowed =
      "void f() {\n"
      "  // FCRLINT_ALLOW(error-discipline): best-effort cleanup\n"
      "  try { g(); } catch (...) {\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_file("src/sim/ok.cpp", allowed),
                       "error-discipline"),
            0);
}

// -------------------------------------------------------------------- SARIF

// ----------------------------------------------------------- workspace-reset

TEST(FcrlintWorkspaceReset, FlagsAppendOnlyMemberOncePerMember) {
  const std::string src =
      "void ExecutionWorkspace::f() {\n"
      "  stale_.push_back(1);\n"
      "  stale_.push_back(2);\n"
      "  other_.emplace_back();\n"
      "}\n";
  const auto findings = lint_file("src/sim/workspace.cpp", src);
  EXPECT_EQ(count_rule(findings, "workspace-reset"), 2);  // stale_, other_
  EXPECT_EQ(lines_of(findings, "workspace-reset"), (std::vector<int>{2, 4}));
}

TEST(FcrlintWorkspaceReset, ResetAnywhereInFileSuppresses) {
  const std::string src =
      "void ExecutionWorkspace::f() {\n"
      "  a_.push_back(1);\n"
      "  a_.clear();\n"
      "  b_.emplace_back();\n"
      "  b_.assign(3, 0);\n"
      "  c_.push_back(1);\n"
      "  c_.resize(0);\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_file("src/sim/workspace.cpp", src),
                       "workspace-reset"),
            0);
}

TEST(FcrlintWorkspaceReset, LocalsAndOtherFilesAreOutOfScope) {
  const std::string src =
      "void f() {\n"
      "  std::vector<int> local;\n"
      "  local.push_back(1);\n"       // no trailing underscore: local
      "  member_.push_back(1);\n"
      "}\n";
  // Locals never flag; the member flags only under src/sim/workspace.*.
  EXPECT_EQ(count_rule(lint_file("src/sim/engine.cpp", src),
                       "workspace-reset"),
            0);
  const auto findings = lint_file("src/sim/workspace.cpp", src);
  EXPECT_EQ(count_rule(findings, "workspace-reset"), 1);
  EXPECT_EQ(lines_of(findings, "workspace-reset"), (std::vector<int>{4}));
}

TEST(FcrlintWorkspaceReset, AllowAnnotationSuppresses) {
  const std::string src =
      "void ExecutionWorkspace::f() {\n"
      "  // FCRLINT_ALLOW(workspace-reset): accumulates across runs by "
      "design\n"
      "  log_.push_back(1);\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_file("src/sim/workspace.hpp", src),
                       "workspace-reset"),
            0);
}

TEST(FcrlintSarif, EmitsSchemaVersionRulesAndLocations) {
  const std::vector<Finding> findings = {
      {"src/sinr/x.cpp", 7, "sinr-float", "no \"float\" here"},
      {"src/sim/y.cpp", 12, "determinism", "line1\nline2"},
  };
  const std::string sarif = fcrlint::to_sarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"fcrlint\""), std::string::npos);
  // Every catalogued rule is in the SARIF rules array.
  for (const fcrlint::RuleMeta& r : fcrlint::kRules) {
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(r.id) + "\""),
              std::string::npos);
  }
  EXPECT_NE(sarif.find("\"ruleId\": \"sinr-float\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/sim/y.cpp\""), std::string::npos);
  // JSON escaping: embedded quotes and newlines must be escaped.
  EXPECT_NE(sarif.find("no \\\"float\\\" here"), std::string::npos);
  EXPECT_NE(sarif.find("line1\\nline2"), std::string::npos);
  EXPECT_EQ(sarif.find("line1\nline2"), std::string::npos);
}

TEST(FcrlintSarif, EmptyRunIsStillWellFormed) {
  const std::string sarif = fcrlint::to_sarif({});
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
  EXPECT_EQ(sarif.find("ruleId"), std::string::npos);
}

// ------------------------------------------------------- fixtures on disk

TEST(FcrlintFixtures, BadDeterminismFixture) {
  const auto findings = lint_file("src/sim/bad_determinism.cpp",
                                  read_fixture("bad_determinism.cpp.txt"));
  EXPECT_EQ(count_rule(findings, "determinism"), 5);
  EXPECT_EQ(count_rule(findings, "ensure-arg"), 0);
  std::vector<int> lines;
  for (const Finding& f : findings) lines.push_back(f.line);
  EXPECT_EQ(lines, (std::vector<int>{14, 15, 16, 17, 18}));
}

TEST(FcrlintFixtures, BadSinrFloatFixture) {
  const auto findings = lint_file("src/sinr/bad_sinr_float.cpp",
                                  read_fixture("bad_sinr_float.cpp.txt"));
  // Line 10 declares a float and casts to float: two findings, same line.
  EXPECT_EQ(rules_of(findings),
            (std::vector<std::string>{"sinr-float", "sinr-float"}));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 10);
  EXPECT_EQ(findings[1].line, 10);
}

TEST(FcrlintFixtures, MissingPragmaFixture) {
  const auto findings = lint_file("src/geom/missing_pragma.hpp",
                                  read_fixture("missing_pragma.hpp.txt"));
  EXPECT_EQ(rules_of(findings), (std::vector<std::string>{"pragma-once"}));
}

TEST(FcrlintFixtures, BadIncludesFixture) {
  const auto findings = lint_file("src/core/bad_includes.cpp",
                                  read_fixture("bad_includes.cpp.txt"));
  EXPECT_EQ(count_rule(findings, "include-hygiene"), 3);
}

TEST(FcrlintFixtures, BadAllowFixture) {
  const auto findings = lint_file("src/ext/bad_allow.cpp",
                                  read_fixture("bad_allow.cpp.txt"));
  EXPECT_EQ(count_rule(findings, "allow-syntax"), 4);
  // The one well-formed annotation suppresses ensure-arg for the file.
  EXPECT_EQ(count_rule(findings, "ensure-arg"), 0);
}

TEST(FcrlintFixtures, BadWorkspaceResetFixture) {
  const auto findings = lint_file("src/sim/workspace.cpp",
                                  read_fixture("bad_workspace_reset.cpp.txt"));
  // Exactly one: stale_ (appended twice, reported once). transmitters_ and
  // feedback_ are reset, local has no member suffix, log_ carries an allow.
  EXPECT_EQ(count_rule(findings, "workspace-reset"), 1);
  EXPECT_EQ(lines_of(findings, "workspace-reset"), (std::vector<int>{16}));
}

TEST(FcrlintFixtures, CleanFixtureHasNoFindings) {
  const auto findings =
      lint_file("src/core/clean_api.cpp", read_fixture("clean_api.cpp.txt"));
  EXPECT_TRUE(findings.empty()) << findings.size() << " unexpected finding(s)";
}

TEST(FcrlintFixtures, BlockCommentSpanFixtureIsClean) {
  const auto findings =
      lint_file("src/sim/block_comment_spans.cpp",
                read_fixture("block_comment_spans.cpp.txt"));
  EXPECT_TRUE(findings.empty()) << findings.size() << " unexpected finding(s)";
}

TEST(FcrlintFixtures, RawStringFixtureIsClean) {
  const auto findings =
      lint_file("src/sim/raw_string.cpp", read_fixture("raw_string.cpp.txt"));
  EXPECT_TRUE(findings.empty()) << findings.size() << " unexpected finding(s)";
}

TEST(FcrlintFixtures, BadLayeringFixture) {
  const auto findings = lint_file("src/sinr/bad_layering.cpp",
                                  read_fixture("bad_layering.cpp.txt"));
  EXPECT_EQ(lines_of(findings, "layering"), (std::vector<int>{6, 7}));
  EXPECT_EQ(findings.size(), 2u);
}

TEST(FcrlintFixtures, BadFpAccumulateFixture) {
  const auto findings = lint_file("src/sinr/bad_fp_accumulate.cpp",
                                  read_fixture("bad_fp_accumulate.cpp.txt"));
  EXPECT_EQ(lines_of(findings, "fp-accumulate"), (std::vector<int>{14, 16}));
  EXPECT_EQ(findings.size(), 2u);
}

TEST(FcrlintFixtures, BadLockDisciplineFixture) {
  const auto findings = lint_file("src/sim/bad_lock_discipline.cpp",
                                  read_fixture("bad_lock_discipline.cpp.txt"));
  EXPECT_EQ(lines_of(findings, "lock-discipline"),
            (std::vector<int>{17, 18, 19}));
  EXPECT_EQ(findings.size(), 3u);
}

TEST(FcrlintFixtures, BadRngFlowFixture) {
  const auto findings = lint_file("src/sim/bad_rng_flow.cpp",
                                  read_fixture("bad_rng_flow.cpp.txt"));
  EXPECT_EQ(lines_of(findings, "rng-flow"), (std::vector<int>{14, 15, 18}));
  EXPECT_EQ(findings.size(), 3u);
}

TEST(FcrlintFixtures, BadErrorSwallowFixture) {
  const auto findings = lint_file("src/sim/bad_error_swallow.cpp",
                                  read_fixture("bad_error_swallow.cpp.txt"));
  EXPECT_EQ(lines_of(findings, "error-discipline"),
            (std::vector<int>{16, 20}));
  EXPECT_EQ(findings.size(), 2u);
}

}  // namespace
