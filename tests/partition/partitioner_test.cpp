#include "partition/partitioner.hpp"

#include <gtest/gtest.h>

#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::make_hypergraph;
using testing::random_hypergraph;

TEST(Partitioner, SinglePartTrivial) {
  const Hypergraph h = random_hypergraph(20, 40, 4, 2, 1);
  PartitionConfig cfg;
  cfg.num_parts = 1;
  const Partition p = partition_hypergraph(h, cfg);
  for (const VertexId v : p.vertices()) EXPECT_EQ(p[v], PartId{0});
}

TEST(Partitioner, EmptyHypergraph) {
  Hypergraph h;
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const Partition p = partition_hypergraph(h, cfg);
  EXPECT_EQ(p.num_vertices(), 0);
}

TEST(Partitioner, BisectionIsBalancedAndValid) {
  const Hypergraph h = random_hypergraph(120, 240, 5, 3, 2);
  PartitionConfig cfg;
  cfg.num_parts = 2;
  cfg.epsilon = 0.1;
  const Partition p = partition_hypergraph(h, cfg);
  p.validate();
  EXPECT_LE(imbalance(h.vertex_weights(), p), 0.15);
}

class PartitionerSweep
    : public ::testing::TestWithParam<std::tuple<Index, std::uint64_t>> {};

TEST_P(PartitionerSweep, BalancedValidDeterministic) {
  const auto [k, seed] = GetParam();
  const Hypergraph h = random_hypergraph(150, 300, 5, 3, seed);
  PartitionConfig cfg;
  cfg.num_parts = k;
  cfg.epsilon = 0.10;
  cfg.seed = seed;
  const Partition p = partition_hypergraph(h, cfg);
  p.validate();
  EXPECT_EQ(p.k, k);
  // Every part non-empty for these sizes.
  const IdVector<PartId, Weight> pw = part_weights(h.vertex_weights(), p);
  for (const Weight w : pw) EXPECT_GT(w, 0);
  // The compounded per-level tolerance can exceed epsilon slightly on tiny
  // instances; assert a sane bound.
  EXPECT_LE(imbalance(h.vertex_weights(), p), 0.30);
  // Determinism: same config => identical partition.
  const Partition p2 = partition_hypergraph(h, cfg);
  EXPECT_EQ(p.assignment, p2.assignment);
}

INSTANTIATE_TEST_SUITE_P(
    KsAndSeeds, PartitionerSweep,
    ::testing::Combine(::testing::Values<Index>(2, 3, 4, 8, 16),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(Partitioner, DifferentSeedsUsuallyDiffer) {
  const Hypergraph h = random_hypergraph(100, 200, 5, 3, 5);
  PartitionConfig a, b;
  a.num_parts = b.num_parts = 4;
  a.seed = 1;
  b.seed = 2;
  const Partition pa = partition_hypergraph(h, a);
  const Partition pb = partition_hypergraph(h, b);
  EXPECT_NE(pa.assignment, pb.assignment);
}

TEST(Partitioner, CutBeatsRandomAssignment) {
  const Hypergraph h = random_hypergraph(200, 500, 4, 3, 6);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const Partition p = partition_hypergraph(h, cfg);
  const Partition r = testing::random_partition(200, 4, 9);
  EXPECT_LT(connectivity_cut(h, p), connectivity_cut(h, r));
}

TEST(Partitioner, DirectKwayAlsoValid) {
  const Hypergraph h = random_hypergraph(120, 240, 4, 2, 7);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const Partition p = direct_kway_partition(h, cfg);
  p.validate();
  EXPECT_LE(imbalance(h.vertex_weights(), p), 0.35);
}

// Ten unit vertices in cliques of 4, 3 and 3: total weight 10 over k = 3.
Hypergraph three_cliques() {
  HypergraphBuilder b(10);
  b.add_net({0, 1, 2, 3}, 10);
  b.add_net({4, 5, 6}, 10);
  b.add_net({7, 8, 9}, 10);
  return b.finalize();
}

// Regression: the greedy coarse assignment truncated avg * (1 + eps) to 3
// at total weight 10, k = 3, eps = 0.05, so the 4-clique could never be
// placed whole and the best possible 4/3/3 split was out of reach. The
// ceil-aware bound is ceil(10/3) = 4. No refinement pass runs, so the
// result is the greedy assignment itself.
TEST(Partitioner, DirectKwayGreedyFillsPartsUpToCeilOfFractionalAverage) {
  const Hypergraph h = three_cliques();
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.epsilon = 0.05;
  cfg.max_refine_passes = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cfg.seed = seed;
    const Partition p = direct_kway_partition(h, cfg);
    EXPECT_EQ(connectivity_cut(h, p), 0) << "seed " << seed;
    for (const Weight w : part_weights(h.vertex_weights(), p))
      EXPECT_LE(w, max_part_weight(10, 3, cfg.epsilon));
  }
}

TEST(Partitioner, OddK) {
  const Hypergraph h = random_hypergraph(90, 180, 4, 2, 10);
  PartitionConfig cfg;
  cfg.num_parts = 5;
  const Partition p = partition_hypergraph(h, cfg);
  p.validate();
  const IdVector<PartId, Weight> pw = part_weights(h.vertex_weights(), p);
  for (const Weight w : pw) EXPECT_GT(w, 0);
}

TEST(Partitioner, ConfigToStringMentionsKey) {
  PartitionConfig cfg;
  cfg.num_parts = 8;
  EXPECT_NE(cfg.to_string().find("k=8"), std::string::npos);
}

}  // namespace
}  // namespace hgr
