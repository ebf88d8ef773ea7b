#include "parallel/par_partitioner.hpp"

#include <gtest/gtest.h>

#include "core/repartition_model.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "metrics/migration.hpp"
#include "parallel/par_initial.hpp"
#include "partition/partitioner.hpp"
#include "test_util.hpp"
#include "workload/generators.hpp"

namespace hgr {
namespace {

using testing::random_hypergraph;

class ParPartitionerSweep : public ::testing::TestWithParam<int> {};

TEST_P(ParPartitionerSweep, ValidBalancedAcrossRankCounts) {
  const int ranks = GetParam();
  const Hypergraph h = random_hypergraph(150, 300, 5, 3, 3);
  ParallelPartitionConfig cfg;
  cfg.num_ranks = ranks;
  cfg.base.num_parts = 4;
  cfg.base.epsilon = 0.1;
  const ParallelPartitionResult r = parallel_partition_hypergraph(h, cfg);
  r.partition.validate();
  EXPECT_EQ(r.partition.k, 4);
  EXPECT_LE(imbalance(h.vertex_weights(), r.partition), 0.35);
  EXPECT_GT(r.levels, 0);
  if (ranks > 1) {
    EXPECT_GT(r.traffic.bytes_sent, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParPartitionerSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ParPartitioner, HonorsFixedVertices) {
  Hypergraph h = random_hypergraph(100, 200, 4, 2, 7);
  std::vector<PartId> fixed(100, kNoPart);
  Rng rng(5);
  for (auto& f : fixed)
    if (rng.chance(0.25)) f = static_cast<PartId>(rng.below(4));
  h.set_fixed_parts(fixed);
  ParallelPartitionConfig cfg;
  cfg.num_ranks = 3;
  cfg.base.num_parts = 4;
  const ParallelPartitionResult r = parallel_partition_hypergraph(h, cfg);
  for (const VertexId v : r.partition.vertices()) {
    const PartId f = h.fixed_part(v);
    if (f != kNoPart) {
      EXPECT_EQ(r.partition[v], f);
    }
  }
}

TEST(ParPartitioner, QualityWithinFactorOfSerial) {
  const Graph g = make_grid3d(8, 8, 8, false);
  const Hypergraph h = graph_to_hypergraph(g);
  ParallelPartitionConfig pcfg;
  pcfg.num_ranks = 4;
  pcfg.base.num_parts = 4;
  const ParallelPartitionResult pr = parallel_partition_hypergraph(h, pcfg);

  PartitionConfig scfg;
  scfg.num_parts = 4;
  const Partition sp = partition_hypergraph(h, scfg);
  EXPECT_LE(connectivity_cut(h, pr.partition),
            3 * connectivity_cut(h, sp) + 50);
}

TEST(ParPartitioner, ParallelRepartitionDecodesAndMigratesLittle) {
  const Graph g = make_grid3d(6, 6, 6, false);
  const Hypergraph h = graph_to_hypergraph(g);
  PartitionConfig scfg;
  scfg.num_parts = 4;
  const Partition old_p = partition_hypergraph(h, scfg);

  ParallelPartitionConfig cfg;
  cfg.num_ranks = 2;
  cfg.base.num_parts = 4;
  const ParallelPartitionResult r =
      parallel_hypergraph_repartition(h, old_p, /*alpha=*/1, cfg);
  EXPECT_EQ(r.partition.num_vertices(), h.num_vertices());
  r.partition.validate();
  // alpha=1 on an unchanged problem: the augmented model should pin most
  // vertices to their old parts.
  EXPECT_LT(migration_volume(h.vertex_sizes(), old_p, r.partition),
            h.num_vertices() / 4);
}

// Regression: the rank path's greedy assignment and its best-of-ranks
// pick both truncated avg * (1 + eps) to 3 at total weight 10, k = 3,
// eps = 0.05, so every rank split the 4-clique and even the best possible
// 4/3/3 split counted as overweight. With the ceil-aware bound (4) every
// rank keeps the cliques whole, and the pick sees no overweight.
TEST(ParPartitioner, CoarsePartitionFillsPartsUpToCeilOfFractionalAverage) {
  HypergraphBuilder b(10);
  b.add_net({0, 1, 2, 3}, 10);
  b.add_net({4, 5, 6}, 10);
  b.add_net({7, 8, 9}, 10);
  const Hypergraph h = b.finalize();
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.epsilon = 0.05;
  cfg.max_refine_passes = 0;
  Comm comm(2);
  std::vector<Partition> results(2);
  comm.run([&](RankContext& ctx) {
    results[static_cast<std::size_t>(ctx.rank())] =
        parallel_coarse_partition(ctx, h, cfg, 42);
  });
  EXPECT_EQ(results[1].assignment, results[0].assignment);
  EXPECT_EQ(connectivity_cut(h, results[0]), 0);
  for (const Weight w : part_weights(h.vertex_weights(), results[0]))
    EXPECT_LE(w, 4);
}

TEST(ParPartitioner, SinglePartShortCircuit) {
  const Hypergraph h = random_hypergraph(30, 50, 4, 2, 9);
  ParallelPartitionConfig cfg;
  cfg.num_ranks = 2;
  cfg.base.num_parts = 1;
  const ParallelPartitionResult r = parallel_partition_hypergraph(h, cfg);
  for (const VertexId v : r.partition.vertices())
    EXPECT_EQ(r.partition[v], PartId{0});
}

}  // namespace
}  // namespace hgr
