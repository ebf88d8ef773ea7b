#include "partition/matching_ipm.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "parallel/comm.hpp"
#include "parallel/par_ipm.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::make_hypergraph;
using testing::random_hypergraph;

TEST(IpmMatching, IsAnInvolution) {
  const Hypergraph h = random_hypergraph(50, 100, 5, 3, 1);
  Rng rng(9);
  const auto match = ipm_matching(h, 0, rng);
  ASSERT_EQ(match.size(), 50u);
  for (const VertexId v : match.ids()) {
    EXPECT_EQ(match[match[v]], v);
  }
}

TEST(IpmMatching, PrefersHeavilyConnectedPartner) {
  // Vertices 0 and 1 share two nets; 0 and 2 share one.
  const Hypergraph h = make_hypergraph(3, {{0, 1}, {0, 1}, {0, 2}});
  Rng rng(1);
  const auto match = ipm_matching(h, 0, rng);
  EXPECT_EQ(match[VertexId{0}], VertexId{1});
  EXPECT_EQ(match[VertexId{1}], VertexId{0});
  EXPECT_EQ(match[VertexId{2}], VertexId{2});  // left unmatched
}

TEST(IpmMatching, IsolatedVerticesStayUnmatched) {
  const Hypergraph h = make_hypergraph(4, {{0, 1}});
  Rng rng(2);
  const auto match = ipm_matching(h, 0, rng);
  EXPECT_EQ(match[VertexId{2}], VertexId{2});
  EXPECT_EQ(match[VertexId{3}], VertexId{3});
}

TEST(IpmMatching, RespectsWeightCap) {
  HypergraphBuilder b(2);
  b.add_net({0, 1});
  b.set_vertex_weight(0, 10);
  b.set_vertex_weight(1, 10);
  const Hypergraph h = b.finalize();
  Rng rng(3);
  // Cap 15 < 20: the pair must not merge.
  const auto match = ipm_matching(h, 15, rng);
  EXPECT_EQ(match[VertexId{0}], VertexId{0});
  EXPECT_EQ(match[VertexId{1}], VertexId{1});
  // Cap 0 disables the check.
  Rng rng2(3);
  const auto match2 = ipm_matching(h, 0, rng2);
  EXPECT_EQ(match2[VertexId{0}], VertexId{1});
}

TEST(IpmMatching, NeverMatchesConflictingFixedVertices) {
  HypergraphBuilder b(2);
  b.add_net({0, 1});
  b.set_fixed_part(0, PartId{0});
  b.set_fixed_part(1, PartId{1});
  const Hypergraph h = b.finalize();
  Rng rng(4);
  const auto match = ipm_matching(h, 0, rng);
  EXPECT_EQ(match[VertexId{0}], VertexId{0});
  EXPECT_EQ(match[VertexId{1}], VertexId{1});
}

TEST(IpmMatching, FixedWithFreeAllowed) {
  HypergraphBuilder b(2);
  b.add_net({0, 1});
  b.set_fixed_part(0, PartId{2});
  const Hypergraph h = b.finalize();
  Rng rng(5);
  const auto match = ipm_matching(h, 0, rng);
  EXPECT_EQ(match[VertexId{0}], VertexId{1});
}

TEST(IpmMatching, SameFixedAllowed) {
  HypergraphBuilder b(2);
  b.add_net({0, 1});
  b.set_fixed_part(0, PartId{1});
  b.set_fixed_part(1, PartId{1});
  const Hypergraph h = b.finalize();
  Rng rng(6);
  const auto match = ipm_matching(h, 0, rng);
  EXPECT_EQ(match[VertexId{0}], VertexId{1});
}

TEST(IpmMatching, FixedCompatibilityRules) {
  EXPECT_TRUE(fixed_compatible(kNoPart, kNoPart));
  EXPECT_TRUE(fixed_compatible(kNoPart, PartId{3}));
  EXPECT_TRUE(fixed_compatible(PartId{3}, kNoPart));
  EXPECT_TRUE(fixed_compatible(PartId{2}, PartId{2}));
  EXPECT_FALSE(fixed_compatible(PartId{1}, PartId{2}));
  EXPECT_EQ(merged_fixed(kNoPart, PartId{4}), PartId{4});
  EXPECT_EQ(merged_fixed(PartId{4}, kNoPart), PartId{4});
  EXPECT_EQ(merged_fixed(kNoPart, kNoPart), kNoPart);
}

TEST(IpmMatching, HubAboveDegreeCapStaysUnmatched) {
  // A star: hub 0 shares one two-pin net with each of kMaxMatchingDegree + 1
  // leaves, so its degree is one above the cap. The hub sits out matching
  // as initiator and as partner, and the leaves have no other neighbor.
  const Index leaves = kMaxMatchingDegree + 1;
  HypergraphBuilder b(leaves + 1);
  for (Index leaf = 1; leaf <= leaves; ++leaf) b.add_net({0, leaf}, 1);
  const Hypergraph h = b.finalize();
  ASSERT_EQ(h.vertex_degree(VertexId{0}), kMaxMatchingDegree + 1);

  Rng rng(7);
  const auto serial = ipm_matching(h, 0, rng);
  EXPECT_EQ(serial[VertexId{0}], VertexId{0});

  // Both rank matchers at 2 ranks: the hub's block holds leaves that
  // would otherwise pick it as their partner.
  Comm comm(2);
  std::mutex m;
  std::vector<IdVector<VertexId, VertexId>> ranks;
  comm.run([&](RankContext& ctx) {
    const auto global = parallel_ipm_matching(ctx, h, 0, 7);
    const auto local = local_ipm_matching(ctx, h, 0, 7);
    std::lock_guard lock(m);
    ranks.push_back(global);
    ranks.push_back(local);
  });
  ASSERT_EQ(ranks.size(), 4u);
  for (const auto& match : ranks) EXPECT_EQ(match[VertexId{0}], VertexId{0});
}

TEST(IpmMatching, DeterministicGivenSeed) {
  const Hypergraph h = random_hypergraph(60, 120, 5, 3, 11);
  Rng a(42), b(42);
  EXPECT_EQ(ipm_matching(h, 0, a),
            ipm_matching(h, 0, b));
}

TEST(IpmMatching, MatchesMostVerticesOnDenseHypergraph) {
  const Hypergraph h = random_hypergraph(100, 400, 4, 2, 13);
  Rng rng(8);
  const auto match = ipm_matching(h, 0, rng);
  Index matched = 0;
  for (const VertexId v : match.ids())
    if (match[v] != v) ++matched;
  EXPECT_GT(matched, 60);  // vast majority pairs up
}

}  // namespace
}  // namespace hgr
