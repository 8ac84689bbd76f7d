// Theorem 12 embedding tests, deployment I/O, and the Lemma 6
// double-counting identity.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "core/fading_cr.hpp"
#include "core/good_nodes.hpp"
#include "deploy/generators.hpp"
#include "deploy/io.hpp"
#include "lowerbound/embedding.hpp"

namespace fcr {
namespace {

// ---------------------------------------------------------------- embedding

TEST(Embedding, ConstructionHasLogarithmicLinkClasses) {
  Rng rng(30);
  for (const std::size_t n : {16u, 64u, 256u, 1024u}) {
    const TwoPlayerEmbedding e = build_two_player_embedding(n, rng);
    EXPECT_EQ(e.deployment.size(), n);
    EXPECT_EQ(e.player_a, 0u);
    EXPECT_EQ(e.player_b, 1u);
    // O(log n) link classes: allow a generous constant.
    EXPECT_LE(e.deployment.link_class_count(),
              4 * static_cast<std::size_t>(std::log2(static_cast<double>(n))) + 8)
        << "n=" << n;
    // The players' mutual link dominates the geometry.
    const double player_link =
        dist(e.deployment.position(0), e.deployment.position(1));
    EXPECT_NEAR(player_link, e.deployment.max_link(),
                e.deployment.max_link() * 0.01);
  }
}

TEST(Embedding, RunMatchesAbstractTwoPlayerExactly) {
  // With player ids 0 and 1, the engine hands them the same split streams
  // as run_two_player, so the embedded run must break symmetry in exactly
  // the same round — the executable content of the Theorem 12 reduction.
  Rng build_rng(31);
  const TwoPlayerEmbedding e = build_two_player_embedding(128, build_rng);
  const FadingContentionResolution algo(0.4);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const TwoPlayerResult abstract = run_two_player(algo, Rng(seed), 100000);
    const TwoPlayerResult embedded =
        run_embedded_two_player(algo, e, Rng(seed), 100000);
    ASSERT_TRUE(abstract.broken);
    ASSERT_TRUE(embedded.broken);
    EXPECT_EQ(embedded.rounds, abstract.rounds) << "seed " << seed;
  }
}

TEST(Embedding, Validation) {
  Rng rng(32);
  EXPECT_THROW(build_two_player_embedding(1, rng), std::invalid_argument);
  TwoPlayerEmbedding e = build_two_player_embedding(8, rng);
  e.player_b = e.player_a;
  const FadingContentionResolution algo;
  EXPECT_THROW(run_embedded_two_player(algo, e, Rng(1), 10),
               std::invalid_argument);
}

// --------------------------------------------------------------------- io

TEST(DeploymentIo, RoundTripsExactly) {
  Rng rng(33);
  const Deployment original = uniform_square(50, 13.0, rng);
  std::stringstream ss;
  write_deployment_csv(original, ss);
  const Deployment loaded = read_deployment_csv(ss);
  ASSERT_EQ(loaded.size(), original.size());
  for (NodeId i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.position(i), original.position(i)) << i;
  }
  EXPECT_DOUBLE_EQ(loaded.min_link(), original.min_link());
}

TEST(DeploymentIo, ParsesHandWrittenInput) {
  std::istringstream in("x,y\r\n0,0\n\n1.5,2.5\r\n");
  const Deployment dep = read_deployment_csv(in);
  ASSERT_EQ(dep.size(), 2u);
  EXPECT_EQ(dep.position(1), (Vec2{1.5, 2.5}));
}

TEST(DeploymentIo, RejectsMalformedInput) {
  {
    std::istringstream in("");
    EXPECT_THROW(read_deployment_csv(in), std::invalid_argument);
  }
  {
    std::istringstream in("a,b\n1,2\n");
    EXPECT_THROW(read_deployment_csv(in), std::invalid_argument);
  }
  {
    std::istringstream in("x,y\n1\n");
    EXPECT_THROW(read_deployment_csv(in), std::invalid_argument);
  }
  {
    std::istringstream in("x,y\n1,abc\n");
    EXPECT_THROW(read_deployment_csv(in), std::invalid_argument);
  }
  {
    std::istringstream in("x,y\n1,2\n1,2\n");  // duplicate position
    EXPECT_THROW(read_deployment_csv(in), std::invalid_argument);
  }
  // strtod parses these; the deployment must reject them, not hang or
  // overflow while indexing them.
  for (const char* body : {"x,y\n0,0\nnan,1\n", "x,y\ninf,0\n1,1\n",
                           "x,y\n0,-inf\n", "x,y\n1e999,0\n0,0\n",
                           "x,y\n1e308,0\n-1e308,0\n"}) {
    std::istringstream in(body);
    EXPECT_THROW(read_deployment_csv(in), std::invalid_argument) << body;
  }
}

// ---------------------------------------------------- extra-good machinery

TEST(ExtraGood, StricterThanGood) {
  Rng rng(34);
  const Deployment dep = uniform_square(200, 30.0, rng).normalized();
  std::vector<NodeId> ids(dep.size());
  std::iota(ids.begin(), ids.end(), NodeId{0});
  const GoodNodeAnalyzer analyzer(dep, ids);
  for (NodeId u = 0; u < 50; ++u) {
    const bool extra_both = analyzer.is_extra_good_wrt_smaller(u) &&
                            analyzer.is_extra_good_wrt_at_least(u);
    // Lemma 6: extra good w.r.t. both sub-populations implies good (the two
    // halved budgets sum to the full one).
    if (extra_both) {
      EXPECT_TRUE(analyzer.is_good(u)) << u;
    }
  }
}

TEST(ExtraGood, ProfileWithinCountsOnlyThePopulation) {
  // Node 0 with partner at 16 (class 4 relative to unit links) and two
  // population shells.
  const Deployment dep({{0, 0}, {16, 0}, {20, 0}, {0, 20}, {1000, 0},
                        {1000, 1}});
  std::vector<NodeId> ids(dep.size());
  std::iota(ids.begin(), ids.end(), NodeId{0});
  const GoodNodeAnalyzer analyzer(dep, ids);
  const std::vector<NodeId> pop_one = {2};
  const AnnulusProfile p1 = analyzer.profile_within(0, pop_one, 48.0);
  // Node 2 at distance 20 from node 0: annulus t=0 spans (16, 32].
  ASSERT_FALSE(p1.counts.empty());
  EXPECT_EQ(p1.counts[0], 1u);
  const std::vector<NodeId> pop_none = {4};
  const AnnulusProfile p2 = analyzer.profile_within(0, pop_none, 48.0);
  EXPECT_EQ(p2.counts[0], 0u);  // node 4 is far beyond the t=0 annulus
}

TEST(ExtraGood, Lemma6DoubleCountingIdentity) {
  // The key identity in Lemma 6's proof:
  //   sum_{u in V_i} |A_t^i(u) ∩ V_<i| = sum_{v in V_<i} |A_t^i(v) ∩ V_i|
  // (annuli on BOTH sides use the scale 2^i). Verify on a random mixed
  // deployment for every class and the first few annuli.
  Rng rng(35);
  std::vector<Vec2> pts;
  for (int i = 0; i < 150; ++i) {
    pts.push_back({rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)});
  }
  const Deployment dep(std::move(pts));
  std::vector<NodeId> ids(dep.size());
  std::iota(ids.begin(), ids.end(), NodeId{0});
  const LinkClassPartition part(dep, ids);
  const double unit = dep.min_link();

  for (std::size_t i = 1; i < part.class_count(); ++i) {
    const auto& v_i = part.nodes_in(i);
    std::vector<NodeId> v_less;
    for (std::size_t j = 0; j < i; ++j) {
      const auto& nodes = part.nodes_in(j);
      v_less.insert(v_less.end(), nodes.begin(), nodes.end());
    }
    if (v_i.empty() || v_less.empty()) continue;
    const SpatialGrid grid_less(dep.positions(), v_less);
    const SpatialGrid grid_i(dep.positions(), v_i);
    for (std::size_t t = 0; t < 4; ++t) {
      const double inner =
          std::pow(2.0, static_cast<double>(i) + static_cast<double>(t)) * unit;
      const double outer = 2.0 * inner;
      std::size_t lhs = 0, rhs = 0;
      for (const NodeId u : v_i) {
        lhs += grid_less.count_in_annulus(dep.position(u), inner, outer, u);
      }
      for (const NodeId v : v_less) {
        rhs += grid_i.count_in_annulus(dep.position(v), inner, outer, v);
      }
      EXPECT_EQ(lhs, rhs) << "class " << i << " annulus " << t;
    }
  }
}

}  // namespace
}  // namespace fcr
