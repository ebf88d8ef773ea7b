#include "partition/kway_refine.hpp"

#include <gtest/gtest.h>

#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::make_hypergraph;
using testing::random_hypergraph;
using testing::random_partition;

TEST(KwayRefine, NeverWorsensCut) {
  PartitionConfig cfg;
  cfg.num_parts = 4;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Hypergraph h = random_hypergraph(60, 120, 5, 3, seed);
    Partition p = random_partition(60, 4, seed + 7);
    const Weight before = connectivity_cut(h, p);
    const KwayRefineResult r = kway_refine(h, p, cfg, 3);
    EXPECT_EQ(r.initial_cut, before);
    EXPECT_LE(r.final_cut, before);
    EXPECT_EQ(r.final_cut, connectivity_cut(h, p));
  }
}

TEST(KwayRefine, FixedVerticesNeverMove) {
  HypergraphBuilder b(6);
  b.add_net({0, 1, 2});
  b.add_net({3, 4, 5});
  b.add_net({2, 3});
  b.set_fixed_part(0, PartId{2});
  const Hypergraph h = b.finalize();
  PartitionConfig cfg;
  cfg.num_parts = 3;
  Partition p(3, 6);
  p[VertexId{0}] = PartId{2};
  p[VertexId{1}] = PartId{0}; p[VertexId{2}] = PartId{0}; p[VertexId{3}] = PartId{1}; p[VertexId{4}] = PartId{1}; p[VertexId{5}] = PartId{1};
  kway_refine(h, p, cfg, 4);
  EXPECT_EQ(p[VertexId{0}], PartId{2});
}

TEST(KwayRefine, DoesNotViolateBalance) {
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.epsilon = 0.2;
  const Hypergraph h = random_hypergraph(60, 150, 4, 2, 21);
  // Balanced round-robin start.
  Partition p(3, 60);
  for (Index v = 0; v < 60; ++v) p[VertexId{v}] = PartId{v % 3};
  const double before = imbalance(h.vertex_weights(), p);
  kway_refine(h, p, cfg, 4);
  // Moves were only allowed into parts that stayed under the cap.
  EXPECT_LE(imbalance(h.vertex_weights(), p),
            std::max(before, cfg.epsilon) + 1e-9);
}

TEST(KwayRefine, SinglePartNoop) {
  const Hypergraph h = random_hypergraph(20, 30, 4, 2, 3);
  PartitionConfig cfg;
  cfg.num_parts = 1;
  Partition p(1, 20, PartId{0});
  const KwayRefineResult r = kway_refine(h, p, cfg, 2);
  EXPECT_EQ(r.moves, 0);
}

TEST(KwayRefine, ImprovesAPlantedBadAssignment) {
  // A 2-clique-ish structure split across 2 of 2 parts the wrong way.
  const Hypergraph h = make_hypergraph(
      8, {{0, 1, 2, 3}, {0, 2}, {1, 3}, {4, 5, 6, 7}, {4, 6}, {5, 7},
          {0, 4}});
  PartitionConfig cfg;
  cfg.num_parts = 2;
  // Greedy sweeps cannot swap, so give single moves balance headroom.
  cfg.epsilon = 0.3;
  Partition p(2, 8);
  // Two stray vertices on the wrong side: single moves fix each.
  p[VertexId{0}] = PartId{0}; p[VertexId{1}] = PartId{0}; p[VertexId{2}] = PartId{0}; p[VertexId{3}] = PartId{1};
  p[VertexId{4}] = PartId{0}; p[VertexId{5}] = PartId{1}; p[VertexId{6}] = PartId{1}; p[VertexId{7}] = PartId{1};
  const KwayRefineResult r = kway_refine(h, p, cfg, 6);
  EXPECT_LT(r.final_cut, r.initial_cut);
}

// Regression: with total weight 7 over k=2 parts the average is 3.5, and
// the old bound static_cast<Weight>(avg * (1 + eps)) truncated to 3 for
// small eps — below ceil(avg) — so no part could ever reach weight 4 and
// the obvious cut-clearing move was rejected forever.
TEST(KwayRefine, AcceptsMoveUpToCeilOfFractionalAverage) {
  HypergraphBuilder b(3);
  b.add_net({0, 2});  // cut in the start partition; internal after the move
  b.set_vertex_weight(0, 3);
  b.set_vertex_weight(1, 3);
  b.set_vertex_weight(2, 1);
  const Hypergraph h = b.finalize();
  PartitionConfig cfg;
  cfg.num_parts = 2;
  cfg.epsilon = 0.05;
  Partition p(2, 3);
  p[VertexId{0}] = PartId{0};
  p[VertexId{1}] = PartId{0};
  p[VertexId{2}] = PartId{1};
  // Moving v0 (weight 3) to part 1 (weight 1) reaches 4 = ceil(3.5): legal
  // under Eq. 1, rejected by the truncated bound.
  const KwayRefineResult r = kway_refine(h, p, cfg, 4);
  EXPECT_GE(r.moves, 1);
  EXPECT_EQ(r.final_cut, 0);
  EXPECT_EQ(connectivity_cut(h, p), 0);
  EXPECT_EQ(p[VertexId{0}], PartId{1});
  EXPECT_EQ(p[VertexId{2}], PartId{1});
}

// The engine proposes only strictly positive-gain moves: two zero-gain,
// balance-improving destinations leave v0 where it is (the epoch fast
// path's GainCache::best_move would take the lighter one).
TEST(KwayRefine, TakesNoZeroGainMove) {
  HypergraphBuilder b(4);
  b.add_net({0, 3}, 1);
  b.add_net({0, 1}, 1);
  b.add_net({0, 2}, 1);
  b.set_vertex_weight(0, 1);
  b.set_vertex_weight(1, 5);
  b.set_vertex_weight(2, 3);
  b.set_vertex_weight(3, 6);
  b.set_fixed_part(1, PartId{1});
  b.set_fixed_part(2, PartId{2});
  b.set_fixed_part(3, PartId{0});
  const Hypergraph h = b.finalize();
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.epsilon = 0.3;
  Partition p(3, 4);
  p[VertexId{0}] = PartId{0}; p[VertexId{1}] = PartId{1}; p[VertexId{2}] = PartId{2}; p[VertexId{3}] = PartId{0};
  const KwayRefineResult r = kway_refine(h, p, cfg, 4);
  EXPECT_EQ(r.moves, 0);
  EXPECT_EQ(r.passes, 1);
  EXPECT_EQ(p[VertexId{0}], PartId{0});
}

// The dense pins-per-part table is guarded at num_nets * k > 2^28; the
// skip must be counted, not silent, and must leave the partition alone.
TEST(KwayRefine, OversizedTableSkipIsCounted) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  // 262145 nets x k=1024 = 2^28 + 1024 crosses the guard.
  HypergraphBuilder b(2);
  for (Index i = 0; i < 262145; ++i) b.add_net({0, 1}, 1);
  const Hypergraph h = b.finalize();
  PartitionConfig cfg;
  cfg.num_parts = 1024;
  Partition p(1024, 2);
  p[VertexId{0}] = PartId{0};
  p[VertexId{1}] = PartId{1};
  const Weight before = connectivity_cut(h, p);
  const KwayRefineResult r = kway_refine(h, p, cfg, 2);
  EXPECT_EQ(reg.counter_value("kway.skipped_table_too_large"), 1u);
  EXPECT_EQ(r.moves, 0);
  EXPECT_EQ(r.final_cut, before);
  EXPECT_EQ(p[VertexId{0}], PartId{0});
  EXPECT_EQ(p[VertexId{1}], PartId{1});
}

TEST(KwayRefine, StopsWhenNoMoveApplies) {
  // Already optimal: one pass, zero moves.
  const Hypergraph h = make_hypergraph(4, {{0, 1}, {2, 3}});
  PartitionConfig cfg;
  cfg.num_parts = 2;
  Partition p(2, 4);
  p[VertexId{0}] = p[VertexId{1}] = PartId{0};
  p[VertexId{2}] = p[VertexId{3}] = PartId{1};
  const KwayRefineResult r = kway_refine(h, p, cfg, 5);
  EXPECT_EQ(r.moves, 0);
  EXPECT_EQ(r.passes, 1);
  EXPECT_EQ(r.final_cut, 0);
}

}  // namespace
}  // namespace hgr
