// End-to-end fixed-vertex guarantees of the partitioner — the capability
// the paper's repartitioning model rests on (Section 4).
#include <gtest/gtest.h>

#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "partition/partitioner.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::random_hypergraph;

Hypergraph with_random_fixed(Hypergraph h, Index k, double fraction,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PartId> fixed(static_cast<std::size_t>(h.num_vertices()),
                            kNoPart);
  for (Index v = 0; v < h.num_vertices(); ++v)
    if (rng.chance(fraction))
      fixed[static_cast<std::size_t>(v)] =
          PartId{static_cast<Index>(rng.below(static_cast<std::uint64_t>(k)))};
  h.set_fixed_parts(std::move(fixed));
  return h;
}

class FixedVertexSweep
    : public ::testing::TestWithParam<std::tuple<Index, double>> {};

TEST_P(FixedVertexSweep, EveryFixedVertexLandsInItsPart) {
  const auto [k, fraction] = GetParam();
  const Hypergraph h = with_random_fixed(
      random_hypergraph(120, 240, 5, 3, 17), k, fraction, 23);
  PartitionConfig cfg;
  cfg.num_parts = k;
  const Partition p = partition_hypergraph(h, cfg);
  p.validate();
  for (const VertexId v : p.vertices()) {
    const PartId f = h.fixed_part(v);
    if (f != kNoPart) {
      EXPECT_EQ(p[v], f) << "vertex " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KsAndFractions, FixedVertexSweep,
    ::testing::Combine(::testing::Values<Index>(2, 4, 8),
                       ::testing::Values(0.05, 0.3, 0.9)));

TEST(FixedVertices, AllVerticesFixedReturnsExactAssignment) {
  Hypergraph h = random_hypergraph(40, 80, 4, 2, 31);
  std::vector<PartId> fixed(40);
  Rng rng(5);
  for (auto& f : fixed) f = PartId{static_cast<Index>(rng.below(4))};
  h.set_fixed_parts(fixed);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const Partition p = partition_hypergraph(h, cfg);
  for (Index v = 0; v < 40; ++v)
    EXPECT_EQ(p[VertexId{v}], fixed[static_cast<std::size_t>(v)]);
}

TEST(FixedVertices, DirectKwayAlsoHonorsFixed) {
  const Hypergraph h = with_random_fixed(
      random_hypergraph(100, 200, 4, 2, 37), 4, 0.3, 41);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const Partition p = direct_kway_partition(h, cfg);
  for (const VertexId v : p.vertices()) {
    const PartId f = h.fixed_part(v);
    if (f != kNoPart) {
      EXPECT_EQ(p[v], f);
    }
  }
}

TEST(FixedVertices, FreeVerticesStillBalanced) {
  const Hypergraph h = with_random_fixed(
      random_hypergraph(200, 400, 4, 2, 53), 4, 0.1, 59);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.epsilon = 0.1;
  const Partition p = partition_hypergraph(h, cfg);
  EXPECT_LE(imbalance(h.vertex_weights(), p), 0.35);
}

TEST(FixedVertices, FixedPullNearbyFreeVertices) {
  // A chain of 9 with its two ends fixed to different parts: the cut must
  // land somewhere in the middle, i.e. each fixed end keeps its immediate
  // neighbor in the same part for a cut of 1.
  HypergraphBuilder b(9);
  for (Index v = 0; v + 1 < 9; ++v) b.add_net({v, v + 1});
  b.set_fixed_part(0, PartId{0});
  b.set_fixed_part(8, PartId{1});
  const Hypergraph h = b.finalize();
  PartitionConfig cfg;
  cfg.num_parts = 2;
  cfg.epsilon = 0.2;
  const Partition p = partition_hypergraph(h, cfg);
  EXPECT_EQ(p[VertexId{0}], PartId{0});
  EXPECT_EQ(p[VertexId{8}], PartId{1});
  EXPECT_EQ(connectivity_cut(h, p), 1);
}

}  // namespace
}  // namespace hgr
