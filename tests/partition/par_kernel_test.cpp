// Thread-count invariance of the thread-parallel kernels: matching,
// contraction, and k-way refinement must produce bit-identical results
// whether they run serially, on a pool of one, or on a pool of four —
// the per-kernel half of the determinism contract (docs/PARALLELISM.md);
// integration/thread_determinism_test.cpp checks the whole pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "metrics/cut.hpp"
#include "partition/contract.hpp"
#include "partition/kway_refine.hpp"
#include "partition/matching_ipm.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::random_hypergraph;
using testing::random_partition;

void expect_same_hypergraph(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  for (const VertexId v : a.vertices()) {
    EXPECT_EQ(a.vertex_weight(v), b.vertex_weight(v));
    EXPECT_EQ(a.vertex_size(v), b.vertex_size(v));
  }
  for (const NetId net : a.nets()) {
    ASSERT_EQ(a.net_size(net), b.net_size(net));
    EXPECT_EQ(a.net_cost(net), b.net_cost(net));
    const auto pa = a.pins(net);
    const auto pb = b.pins(net);
    for (Index i = 0; i < a.net_size(net); ++i) EXPECT_EQ(pa[i], pb[i]);
  }
}

IdVector<VertexId, VertexId> match_with_threads(const Hypergraph& h,
                                                int threads,
                                                std::uint64_t seed) {
  Rng rng(seed);
  if (threads == 0) return ipm_matching(h, 0, rng, nullptr);
  ThreadPool pool(threads);
  Workspace ws;
  ws.set_pool(&pool);
  return ipm_matching(h, 0, rng, &ws);
}

TEST(ParKernel, MatchingIsThreadCountInvariant) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    const Hypergraph h = random_hypergraph(400, 800, 6, 3, seed);
    const auto serial = match_with_threads(h, 0, seed);
    const auto t1 = match_with_threads(h, 1, seed);
    const auto t4 = match_with_threads(h, 4, seed);
    EXPECT_EQ(serial, t1) << "seed " << seed;
    EXPECT_EQ(serial, t4) << "seed " << seed;
  }
}

TEST(ParKernel, MatchingWithFixedVerticesIsThreadCountInvariant) {
  Hypergraph h = random_hypergraph(200, 400, 5, 3, 3);
  std::vector<PartId> fixed(200, kNoPart);
  for (Index v = 0; v < 200; v += 7) fixed[v] = PartId{v % 4};
  h.set_fixed_parts(std::move(fixed));
  const auto serial = match_with_threads(h, 0, 13);
  const auto t4 = match_with_threads(h, 4, 13);
  EXPECT_EQ(serial, t4);
}

TEST(ParKernel, ContractIsThreadCountInvariant) {
  const Hypergraph h = random_hypergraph(400, 800, 6, 3, 5);
  const auto match = match_with_threads(h, 0, 5);

  const CoarseLevel serial = contract(h, match, nullptr);

  ThreadPool pool(4);
  Workspace ws;
  ws.set_pool(&pool);
  const CoarseLevel threaded = contract(h, match, &ws);
  // Run a second time through the now-warm arena: pooled (possibly dirty)
  // per-thread scratch must not change the result either.
  const CoarseLevel threaded2 = contract(h, match, &ws);

  EXPECT_EQ(serial.fine_to_coarse, threaded.fine_to_coarse);
  expect_same_hypergraph(serial.coarse, threaded.coarse);
  EXPECT_EQ(serial.fine_to_coarse, threaded2.fine_to_coarse);
  expect_same_hypergraph(serial.coarse, threaded2.coarse);
}

TEST(ParKernel, KwayRefineIsThreadCountInvariant) {
  const Hypergraph h = random_hypergraph(300, 600, 6, 3, 17);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.epsilon = 0.2;

  const auto refine_with = [&](int threads) {
    Partition p = random_partition(300, 4, 99);
    if (threads == 0) {
      const KwayRefineResult r = kway_refine(h, p, cfg, 6, nullptr);
      return std::pair{p, r};
    }
    ThreadPool pool(threads);
    Workspace ws;
    ws.set_pool(&pool);
    const KwayRefineResult r = kway_refine(h, p, cfg, 6, &ws);
    return std::pair{p, r};
  };

  const auto [p_serial, r_serial] = refine_with(0);
  const auto [p_t1, r_t1] = refine_with(1);
  const auto [p_t4, r_t4] = refine_with(4);

  EXPECT_EQ(p_serial.assignment, p_t1.assignment);
  EXPECT_EQ(p_serial.assignment, p_t4.assignment);
  EXPECT_EQ(r_serial.final_cut, r_t4.final_cut);
  EXPECT_EQ(r_serial.moves, r_t4.moves);
  EXPECT_EQ(r_serial.passes, r_t4.passes);
  // The refinement actually did something, so invariance is non-vacuous.
  EXPECT_GT(r_serial.moves, 0);
  EXPECT_LT(r_serial.final_cut, r_serial.initial_cut);
  EXPECT_EQ(connectivity_cut(h, p_t4), r_t4.final_cut);
}

TEST(ParKernel, KwayRefineRespectsFixedVerticesUnderThreads) {
  Hypergraph h = random_hypergraph(200, 400, 5, 3, 29);
  std::vector<PartId> fixed(200, kNoPart);
  for (Index v = 0; v < 200; v += 9) fixed[v] = PartId{v % 3};
  h.set_fixed_parts(std::move(fixed));
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.epsilon = 0.3;
  Partition p = random_partition(200, 3, 7);
  for (const VertexId v : h.vertices())
    if (h.fixed_part(v) != kNoPart) p[v] = h.fixed_part(v);

  ThreadPool pool(4);
  Workspace ws;
  ws.set_pool(&pool);
  kway_refine(h, p, cfg, 4, &ws);
  for (const VertexId v : h.vertices()) {
    if (h.fixed_part(v) != kNoPart) {
      EXPECT_EQ(p[v], h.fixed_part(v));
    }
  }
}

}  // namespace
}  // namespace hgr
