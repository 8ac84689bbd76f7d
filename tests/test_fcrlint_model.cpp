// Unit tests for the fcrlint v3 interprocedural layer: the program-model
// extraction (tools/fcrlint_model.hpp), the three cross-TU rules —
// rng-lineage, hot-path-alloc, error-provenance — and a whole-repo run
// proving the real src/ tree is clean under every rule, that every root the
// reachability rules start from names a function, and that the steady-state
// round loop's reachable set contains the channel resolution layer.
//
// Test inputs with banned tokens are C++ string literals; the lexer turns
// literals into opaque tokens, so this file stays clean under fcrlint_tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fcrlint_rules.hpp"

namespace {

using fcrlint::Finding;
using fcrlint::lex;
using fcrlint::lint_tree;
using fcrlint::model::AllocSite;
using fcrlint::model::extract;
using fcrlint::model::FileModel;
using fcrlint::model::RngSite;

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

const fcrlint::model::FunctionFacts* find_fn(const FileModel& fm,
                                             const std::string& qualified,
                                             bool definition) {
  for (const auto& f : fm.functions) {
    if (f.qualified == qualified && f.is_definition == definition) return &f;
  }
  return nullptr;
}

// --------------------------------------------------------------- extraction

TEST(ModelExtract, FunctionsClassesAndGuardedFields) {
  const std::string src =
      "namespace fcr {\n"
      "class Pool : public Base {\n"
      " public:\n"
      "  void submit(int n);\n"
      "  int size() const { return n_; }\n"
      " private:\n"
      "  Mutex m_;\n"
      "  int n_ FCR_GUARDED_BY(m_) = 0;\n"
      "};\n"
      "void Pool::submit(int n) { n_ = n; }\n"
      "}  // namespace fcr\n";
  const FileModel fm = extract("src/sim/pool.cpp", lex(src));

  ASSERT_EQ(fm.classes.size(), 1u);
  EXPECT_EQ(fm.classes[0].name, "fcr::Pool");
  EXPECT_EQ(fm.classes[0].bases, (std::vector<std::string>{"Base"}));

  // The annotated member is data: FCR_GUARDED_BY(m_) is not a declarator.
  EXPECT_EQ(fm.functions.size(), 3u);
  for (const auto& f : fm.functions) EXPECT_NE(f.name, "FCR_GUARDED_BY");

  const auto* decl = find_fn(fm, "fcr::Pool::submit", false);
  const auto* def = find_fn(fm, "fcr::Pool::submit", true);
  const auto* inline_def = find_fn(fm, "fcr::Pool::size", true);
  ASSERT_NE(decl, nullptr);
  ASSERT_NE(def, nullptr);
  ASSERT_NE(inline_def, nullptr);
  EXPECT_EQ(def->cls, "fcr::Pool");
  EXPECT_EQ(def->name, "submit");
}

TEST(ModelExtract, BodyFactsLocksAllocsAndRngKinds) {
  const std::string src =
      "namespace fcr {\n"
      "void f(Rng& parent) {\n"
      "  const MutexLock lock(mu_);\n"
      "  Rng child = parent.split(3);\n"
      "  Rng amb;\n"
      "  std::vector<int> sized(10);\n"
      "  std::vector<int> grown;\n"
      "  grown.push_back(1);\n"
      "  buf_.push_back(2);\n"
      "  buf_.reserve(8);\n"
      "  auto p = std::make_unique<Node>(5);\n"
      "  int* q = new int(7);\n"
      "  delete q;\n"
      "}\n"
      "}  // namespace fcr\n";
  const FileModel fm = extract("src/sim/facts.cpp", lex(src));
  const auto* f = find_fn(fm, "fcr::f", true);
  ASSERT_NE(f, nullptr);

  // `const MutexLock lock(mu_)` declares a scoped lock; it is not a call.
  for (const auto& c : f->calls) EXPECT_NE(c.callee, "lock");

  ASSERT_EQ(f->rngs.size(), 2u);
  EXPECT_EQ(f->rngs[0].kind, RngSite::kSplit);
  EXPECT_EQ(f->rngs[0].name, "child");
  EXPECT_EQ(f->rngs[1].kind, RngSite::kAmbient);
  EXPECT_EQ(f->rngs[1].name, "amb");

  std::vector<std::pair<int, std::string>> allocs;
  for (const AllocSite& a : f->allocs) allocs.emplace_back(a.kind, a.what);
  EXPECT_EQ(allocs, (std::vector<std::pair<int, std::string>>{
                        {AllocSite::kLocalCtor, "sized"},
                        {AllocSite::kLocalGrowth, "grown"},
                        {AllocSite::kGrowth, "buf_"},
                        {AllocSite::kMakeSmart, "Node"},
                        {AllocSite::kNew, "int"},
                    }));

  // reserve() on the member registers it as warm-capacity for the tree.
  EXPECT_NE(std::find(fm.reserved.begin(), fm.reserved.end(), "buf_"),
            fm.reserved.end());
}

// -------------------------------------------------------------- rng-lineage

TEST(ModelRngLineage, FixtureFlagsAmbientAndRerootedStreams) {
  const auto findings = lint_tree({{"src/sim/bad_rng_lineage.cpp",
                                    read_fixture("bad_rng_lineage.cpp.txt")}});
  EXPECT_EQ(lines_of(findings, "rng-lineage"), (std::vector<int>{17, 28}));
  for (const Finding& f : findings) {
    if (f.rule == "rng-lineage" && f.line == 17) {
      // The re-rooted seed carries its witness chain from the closure root.
      EXPECT_NE(f.message.find("run_execution"), std::string::npos);
      EXPECT_NE(f.message.find("helper_trial"), std::string::npos);
    }
  }
}

// ----------------------------------------------------------- hot-path-alloc

TEST(ModelHotPathAlloc, FixtureFlagsAllocationsReachableFromRoundLoop) {
  const auto findings = lint_tree(
      {{"src/sim/bad_hot_alloc.cpp", read_fixture("bad_hot_alloc.cpp.txt")}});
  EXPECT_EQ(lines_of(findings, "hot-path-alloc"), (std::vector<int>{25, 26}));
  for (const Finding& f : findings) {
    if (f.rule == "hot-path-alloc") {
      // Every finding proves its reachability with a witness chain that
      // starts at the round loop.
      EXPECT_NE(f.message.find("run_rounds"), std::string::npos);
      EXPECT_NE(f.message.find("resolve_round"), std::string::npos);
    }
  }
}

// --------------------------------------------------------- error-provenance

TEST(ModelErrorProvenance, FixtureFlagsBareStdThrowOnPoolPath) {
  const auto findings =
      lint_tree({{"src/sim/bad_error_provenance.cpp",
                  read_fixture("bad_error_provenance.cpp.txt")}});
  EXPECT_EQ(lines_of(findings, "error-provenance"), (std::vector<int>{15}));
  for (const Finding& f : findings) {
    if (f.rule == "error-provenance") {
      EXPECT_NE(f.message.find("run_batch"), std::string::npos);
      EXPECT_NE(f.message.find("fcr::Error"), std::string::npos);
    }
  }
}

// ---------------------------------------------------------------- real tree

TEST(ModelRealTree, SrcIsCleanAndRoundLoopReachesChannelResolution) {
  namespace fs = std::filesystem;
  const fs::path src_root = fs::path(FCRLINT_REPO_DIR) / "src";
  ASSERT_TRUE(fs::exists(src_root));

  std::vector<fcrlint::FileArtifacts> artifacts;
  for (const auto& entry : fs::recursive_directory_iterator(src_root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".cpp") continue;
    const std::string rel =
        fs::relative(entry.path(), fs::path(FCRLINT_REPO_DIR))
            .generic_string();
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    artifacts.push_back(fcrlint::prepare_artifacts(rel, os.str()));
  }
  ASSERT_GT(artifacts.size(), 50u);

  // The shipped library carries zero findings (reasoned allows included).
  const std::vector<Finding> findings = fcrlint::finalize_tree(artifacts);
  std::string render;
  for (const Finding& f : findings) {
    render += f.file + ":" + std::to_string(f.line) + " [" + f.rule + "] " +
              f.message + "\n";
  }
  EXPECT_TRUE(findings.empty()) << render;

  std::vector<fcrlint::model::TreeFile> tree;
  for (const fcrlint::FileArtifacts& a : artifacts) {
    if (a.has_model) tree.push_back({a.path, &a.model, &a.allows});
  }
  const fcrlint::model::ProgramModel pm =
      fcrlint::model::build_program_model(tree);

  // Every root of hot-path-alloc and rng-lineage is a function defined in
  // src/: renaming one would silently empty that rule's reachable set.
  auto defined = [&](std::string_view root) {
    for (const std::size_t i :
         fcrlint::model::pmdetail::roots_matching(pm, std::array{root})) {
      if (pm.fns[i].facts.is_definition) return true;
    }
    return false;
  };
  for (const std::string_view root : fcrlint::model::kRoundLoopRoots) {
    EXPECT_TRUE(defined(root)) << "hot-path-alloc root " << root;
  }
  for (const std::string_view root : fcrlint::model::kExecutionRoots) {
    EXPECT_TRUE(defined(root)) << "rng-lineage root " << root;
  }

  // Static zero-alloc proof, part 1: the hot reachable set exists and
  // contains the channel resolution layer the round loops drive — BOTH the
  // per-node virtual loop and the columnar SoA loop, which must pull in the
  // decide kernels through virtual-call edge resolution.
  const std::vector<std::size_t> parent = fcrlint::model::reach_parents(
      pm, fcrlint::model::pmdetail::roots_matching(
              pm, fcrlint::model::kRoundLoopRoots));

  std::size_t reached = 0;
  bool resolve_reached = false;
  bool decide_reached = false;
  for (std::size_t i = 0; i < pm.fns.size(); ++i) {
    if (parent[i] == fcrlint::npos) continue;
    ++reached;
    if (pm.fns[i].facts.name == "resolve" &&
        fcrlint::detail::starts_with(pm.fns[i].file, "src/")) {
      resolve_reached = true;
    }
    if (pm.fns[i].facts.name == "decide" &&
        fcrlint::detail::starts_with(pm.fns[i].file, "src/")) {
      decide_reached = true;
    }
  }
  // The loop body (on_round_begin/resolve/on_round_end plumbing) is part of
  // the reachable set; a degenerate one-node set would mean the call-edge
  // resolution silently broke. The columnar per-algorithm decision kernels
  // must be inside the no-allocation region too.
  EXPECT_GE(reached, 5u);
  EXPECT_TRUE(resolve_reached);
  EXPECT_TRUE(decide_reached);
}

}  // namespace
