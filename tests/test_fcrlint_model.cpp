// Unit tests for the fcrlint v3 interprocedural layer: the program-model
// extraction (tools/fcrlint_model.hpp), the four cross-TU rules — lockset,
// rng-lineage, hot-path-alloc, error-provenance — the content-hash artifact
// cache (tools/fcrlint_cache.hpp), the --fix rewrites (tools/fcrlint_fix.hpp),
// and a whole-repo run proving the real src/ tree is clean and that the
// steady-state round loop's reachable set contains the channel resolution
// layer.
//
// Test inputs with banned tokens are C++ string literals; the lexer turns
// literals into opaque tokens, so this file stays clean under fcrlint_tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fcrlint_cache.hpp"
#include "fcrlint_fix.hpp"
#include "fcrlint_rules.hpp"

namespace {

using fcrlint::FileInput;
using fcrlint::Finding;
using fcrlint::lex;
using fcrlint::lint_tree;
using fcrlint::model::AllocSite;
using fcrlint::model::extract;
using fcrlint::model::FileModel;
using fcrlint::model::RngSite;

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

  ASSERT_EQ(fm.fields.size(), 1u);
  EXPECT_EQ(fm.fields[0].cls, "fcr::Pool");
  EXPECT_EQ(fm.fields[0].name, "n_");
  EXPECT_EQ(fm.fields[0].mutex, "m_");

  const auto* decl = find_fn(fm, "fcr::Pool::submit", false);
  const auto* def = find_fn(fm, "fcr::Pool::submit", true);
  const auto* inline_def = find_fn(fm, "fcr::Pool::size", true);
  ASSERT_NE(decl, nullptr);
  ASSERT_NE(def, nullptr);
  ASSERT_NE(inline_def, nullptr);
  EXPECT_EQ(def->cls, "fcr::Pool");
  EXPECT_EQ(def->name, "submit");
  // Both bodies touch the guarded member.
  ASSERT_FALSE(def->accesses.empty());
  EXPECT_EQ(def->accesses[0].name, "n_");
  EXPECT_FALSE(def->accesses[0].qualified);
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

  EXPECT_EQ(f->locks, (std::vector<std::string>{"mu_"}));

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

TEST(ModelExtract, QualifiedAccessesCarryReceiverTypes) {
  const std::string src =
      "namespace fcr {\n"
      "struct CheckpointData { int entries; };\n"
      "int serialize(const CheckpointData& data) {\n"
      "  const auto loaded = open();\n"
      "  int a = data.entries;\n"
      "  int b = loaded->entries;\n"
      "  return a + b;\n"
      "}\n"
      "}  // namespace fcr\n";
  const FileModel fm = extract("src/sim/ckpt.cpp", lex(src));
  const auto* f = find_fn(fm, "fcr::serialize", true);
  ASSERT_NE(f, nullptr);

  const fcrlint::model::Access* via_param = nullptr;
  const fcrlint::model::Access* via_auto = nullptr;
  for (const auto& a : f->accesses) {
    if (a.name != "entries" || !a.qualified) continue;
    if (a.receiver == "data") via_param = &a;
    if (a.receiver == "loaded") via_auto = &a;
  }
  ASSERT_NE(via_param, nullptr);
  ASSERT_NE(via_auto, nullptr);
  // The parameter's declared type is known; the auto local's is not — so
  // only the former can ever match a guarded field's class.
  EXPECT_EQ(via_param->recv_type, "CheckpointData");
  EXPECT_EQ(via_auto->recv_type, "");
}

// ------------------------------------------------------------------ lockset

TEST(ModelLockset, FixtureFlagsOnlyTheUnlockedPath) {
  const auto findings = lint_tree(
      {{"src/sim/bad_lockset.cpp", read_fixture("bad_lockset.cpp.txt")}});
  EXPECT_EQ(lines_of(findings, "lockset"), (std::vector<int>{24}));
  for (const Finding& f : findings) {
    if (f.rule == "lockset") {
      EXPECT_NE(f.message.find("FCR_GUARDED_BY(m)"), std::string::npos);
      EXPECT_NE(f.message.find("peek"), std::string::npos);
    }
  }
}

TEST(ModelLockset, CallerHoldingTheLockCoversCalleesAcrossFiles) {
  const std::string header =
      "#pragma once\n"
      "namespace fcr {\n"
      "class Recorder {\n"
      " public:\n"
      "  void locked_drain();\n"
      "  void helper();\n"
      "  void drain() FCR_REQUIRES(m_);\n"
      " private:\n"
      "  Mutex m_;\n"
      "  int entries_ FCR_GUARDED_BY(m_) = 0;\n"
      "};\n"
      "}\n";
  const std::string good_cpp =
      "#include \"sim/rec.hpp\"\n"
      "namespace fcr {\n"
      "void Recorder::locked_drain() {\n"
      "  const MutexLock lock(m_);\n"
      "  helper();\n"
      "}\n"
      "void Recorder::helper() { entries_ = 0; }\n"
      "void Recorder::drain() { entries_ = 1; }\n"
      "}\n";
  // helper() is covered by its lock-holding caller; drain() inherits the
  // header declaration's FCR_REQUIRES. Neither flags.
  const auto good = lint_tree(
      {{"src/sim/rec.hpp", header}, {"src/sim/rec.cpp", good_cpp}});
  EXPECT_EQ(count_rule(good, "lockset"), 0);

  // Remove the caller's lock and helper()'s access loses every covered path.
  const std::string bad_cpp =
      "#include \"sim/rec.hpp\"\n"
      "namespace fcr {\n"
      "void Recorder::locked_drain() {\n"
      "  helper();\n"
      "}\n"
      "void Recorder::helper() { entries_ = 0; }\n"
      "void Recorder::drain() { entries_ = 1; }\n"
      "}\n";
  const auto bad = lint_tree(
      {{"src/sim/rec.hpp", header}, {"src/sim/rec.cpp", bad_cpp}});
  EXPECT_EQ(lines_of(bad, "lockset"), (std::vector<int>{6}));
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

// -------------------------------------------------------------------- cache

TEST(ModelCache, RoundTripPreservesArtifactsAndReceiverTypes) {
  const std::string path = "src/sim/bad_lockset.cpp";
  const std::string content = read_fixture("bad_lockset.cpp.txt");
  const fcrlint::FileArtifacts a = fcrlint::prepare_artifacts(path, content);
  const std::uint64_t hash = fcrlint::cache::fnv1a64(content);

  const std::string file =
      (std::filesystem::path(testing::TempDir()) / "fcrlint_rt.cache").string();
  fcrlint::cache::ArtifactCache writer;
  writer.store(path, hash, a);
  ASSERT_TRUE(writer.save(file));

  fcrlint::cache::ArtifactCache reader;
  ASSERT_TRUE(reader.load(file));
  EXPECT_EQ(reader.size(), 1u);
  const fcrlint::FileArtifacts* hit = reader.lookup(path, hash);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->findings, a.findings);
  EXPECT_EQ(hit->allows.size(), a.allows.size());
  EXPECT_TRUE(hit->has_model);
  EXPECT_EQ(hit->model.functions.size(), a.model.functions.size());
  EXPECT_EQ(hit->model.fields.size(), a.model.fields.size());

  // The receiver-typed access (snap.entries with declared type Snapshot)
  // survives the text round trip — the lockset rule depends on it.
  bool typed_access = false;
  for (const auto& fn : hit->model.functions) {
    for (const auto& acc : fn.accesses) {
      if (acc.qualified && acc.receiver == "snap" &&
          acc.recv_type == "Snapshot") {
        typed_access = true;
      }
    }
  }
  EXPECT_TRUE(typed_access);

  // A content change means a different hash: lookup must miss.
  EXPECT_EQ(reader.lookup(path, hash + 1), nullptr);
  EXPECT_EQ(reader.stats().hits, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(ModelCache, CorruptOrStaleCachesAreDiscardedWhole) {
  const auto tmp = std::filesystem::path(testing::TempDir());

  const std::string garbage = (tmp / "fcrlint_garbage.cache").string();
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a cache at all\n";
  }
  fcrlint::cache::ArtifactCache c1;
  EXPECT_FALSE(c1.load(garbage));
  EXPECT_EQ(c1.size(), 0u);

  // Right header, malformed record: the whole cache is rejected, not just
  // the bad line — a partial model would silently skew the tree analyses.
  const std::string truncated = (tmp / "fcrlint_truncated.cache").string();
  {
    std::ofstream out(truncated, std::ios::binary);
    out << "fcrlintcache " << fcrlint::cache::kFormatRev << " "
        << fcrlint::kRules.size() << "\n";
    out << "= 1234 src/sim/x.cpp\n";
    out << "F not-a-number oops\n";
  }
  fcrlint::cache::ArtifactCache c2;
  EXPECT_FALSE(c2.load(truncated));
  EXPECT_EQ(c2.size(), 0u);

  // A stale format revision (or rule-count drift) discards the file too.
  const std::string stale = (tmp / "fcrlint_stale.cache").string();
  {
    std::ofstream out(stale, std::ios::binary);
    out << "fcrlintcache 999 " << fcrlint::kRules.size() << "\n";
  }
  fcrlint::cache::ArtifactCache c3;
  EXPECT_FALSE(c3.load(stale));
  EXPECT_EQ(c3.size(), 0u);
}

// ---------------------------------------------------------------------- fix

TEST(ModelFix, MechanicalRewritesConvergeInOnePass) {
  const std::string src =
      "// doc header first\n"
      "#include <math.h>\n"
      "double fixture(double x);\n";
  const auto first = fcrlint::fix::apply_fixes("src/util/fixme.hpp", src);
  EXPECT_EQ(first.edits, 2u);
  EXPECT_NE(first.content.find("// doc header first\n#pragma once\n"),
            std::string::npos);
  EXPECT_NE(first.content.find("<cmath>"), std::string::npos);
  EXPECT_EQ(first.content.find("math.h"), std::string::npos);

  const auto second =
      fcrlint::fix::apply_fixes("src/util/fixme.hpp", first.content);
  EXPECT_EQ(second.edits, 0u);
  EXPECT_EQ(second.content, first.content);
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

  // Static zero-alloc proof, part 1: the hot reachable set exists and
  // contains the channel resolution layer the round loops drive — BOTH the
  // per-node virtual loop and the columnar SoA loop, which must pull in the
  // decide kernels through virtual-call edge resolution.
  std::vector<fcrlint::model::TreeFile> tree;
  for (const fcrlint::FileArtifacts& a : artifacts) {
    if (a.has_model) tree.push_back({a.path, &a.model, &a.allows});
  }
  const fcrlint::model::ProgramModel pm =
      fcrlint::model::build_program_model(tree);
  const std::vector<std::size_t> roots = fcrlint::model::pmdetail::roots_matching(
      pm, {"ExecutionWorkspace::run_rounds",
           "ExecutionWorkspace::run_rounds_columnar"});
  ASSERT_GE(roots.size(), 2u);
  const std::vector<std::size_t> parent =
      fcrlint::model::reach_parents(pm, roots);

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
