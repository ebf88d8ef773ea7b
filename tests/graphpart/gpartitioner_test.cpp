#include "graphpart/gpartitioner.hpp"

#include <gtest/gtest.h>

#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "test_util.hpp"
#include "workload/generators.hpp"

namespace hgr {
namespace {

using testing::random_graph;

class GraphPartitionerSweep
    : public ::testing::TestWithParam<std::tuple<Index, std::uint64_t>> {};

TEST_P(GraphPartitionerSweep, ValidBalancedDeterministic) {
  const auto [k, seed] = GetParam();
  const Graph g = random_graph(200, 500, seed);
  PartitionConfig cfg;
  cfg.num_parts = k;
  cfg.epsilon = 0.1;
  cfg.seed = seed;
  const Partition p = partition_graph(g, cfg);
  p.validate();
  EXPECT_LE(imbalance(g.vertex_weights(), p), 0.35);
  const Partition p2 = partition_graph(g, cfg);
  EXPECT_EQ(p.assignment, p2.assignment);
}

INSTANTIATE_TEST_SUITE_P(
    KsAndSeeds, GraphPartitionerSweep,
    ::testing::Combine(::testing::Values<Index>(2, 4, 8),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(GraphPartitioner, CutBeatsRandom) {
  const Graph g = make_grid3d(8, 8, 8, false);
  PartitionConfig cfg;
  cfg.num_parts = 8;
  const Partition p = partition_graph(g, cfg);
  const Partition r = testing::random_partition(g.num_vertices(), 8, 3);
  EXPECT_LT(edge_cut(g, p), edge_cut(g, r) / 2);
}

TEST(GraphPartitioner, MeshBisectionNearSurface) {
  // Bisecting a 10x10x10 grid should find a cut close to a face
  // (100 edges), certainly below 3x that.
  const Graph g = make_grid3d(10, 10, 10, false);
  PartitionConfig cfg;
  cfg.num_parts = 2;
  const Partition p = partition_graph(g, cfg);
  EXPECT_LT(edge_cut(g, p), 300);
}

// Regression: greedy growing, refinement and diffusion each truncated
// avg * (1 + eps) to 3 at total weight 10, k = 3, eps = 0.05, so no part
// could hold the 4-clique and every partition cut it. With the ceil-aware
// bound (4) the three cliques fit whole.
TEST(GraphPartitioner, FillsPartsUpToCeilOfFractionalAverage) {
  GraphBuilder b(10);
  const auto clique = [&b](Index first, Index size) {
    for (Index u = first; u < first + size; ++u)
      for (Index v = u + 1; v < first + size; ++v) b.add_edge(u, v, 1);
  };
  clique(0, 4);
  clique(4, 3);
  clique(7, 3);
  const Graph g = b.finalize();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    PartitionConfig cfg;
    cfg.num_parts = 3;
    cfg.epsilon = 0.05;
    cfg.seed = seed;
    const Partition p = partition_graph(g, cfg);
    EXPECT_EQ(edge_cut(g, p), 0) << "seed=" << seed;
    for (const Weight w : part_weights(g.vertex_weights(), p))
      EXPECT_LE(w, 4) << "seed=" << seed;
  }
}

TEST(GraphPartitioner, SinglePart) {
  const Graph g = random_graph(30, 40, 7);
  PartitionConfig cfg;
  cfg.num_parts = 1;
  const Partition p = partition_graph(g, cfg);
  for (const VertexId v : p.vertices()) EXPECT_EQ(p[v], PartId{0});
}

TEST(GraphPartitioner, EmptyGraph) {
  Graph g;
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const Partition p = partition_graph(g, cfg);
  EXPECT_EQ(p.num_vertices(), 0);
}

}  // namespace
}  // namespace hgr
