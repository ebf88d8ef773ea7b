// Workspace arena tests: take/give pooling semantics, the Borrowed
// null-workspace fallback, and — the property the arena must never break —
// that pooled scratch leaves kernel results bit-identical, verified by
// running the multilevel partitioner under paranoid validation with a
// reused arena.
#include "common/workspace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/check_level.hpp"
#include "common/thread_pool.hpp"
#include "metrics/cut.hpp"
#include "partition/partitioner.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::random_hypergraph;

TEST(Workspace, TakeAllocatesGiveRecycles) {
  Workspace ws;
  std::vector<int> v = ws.take<int>();
  EXPECT_TRUE(v.empty());
  v.resize(100);
  int* const data = v.data();
  ws.give(std::move(v));
  EXPECT_EQ(ws.pooled(), 1u);

  std::vector<int> again = ws.take<int>();
  EXPECT_TRUE(again.empty());           // cleared...
  EXPECT_GE(again.capacity(), 100u);    // ...but capacity survived
  EXPECT_EQ(again.data(), data);        // same allocation came back
  EXPECT_EQ(ws.pooled(), 0u);

  EXPECT_EQ(ws.stats().takes, 2u);
  EXPECT_EQ(ws.stats().allocations, 1u);
  EXPECT_EQ(ws.stats().reuses, 1u);
}

TEST(Workspace, DistinctTypesPoolSeparately) {
  Workspace ws;
  ws.give(std::vector<int>(10));
  ws.give(std::vector<double>(10));
  EXPECT_EQ(ws.pooled(), 2u);
  ws.take<int>();
  EXPECT_EQ(ws.pooled(), 1u);  // the double vector is still cached
  EXPECT_EQ(ws.stats().reuses, 1u);
}

TEST(Workspace, ClearDropsPooledCapacity) {
  Workspace ws;
  ws.give(std::vector<int>(10));
  ws.clear();
  EXPECT_EQ(ws.pooled(), 0u);
  ws.take<int>();
  EXPECT_EQ(ws.stats().allocations, 1u);  // nothing left to reuse
}

TEST(Workspace, BorrowedReturnsOnDestruction) {
  Workspace ws;
  {
    Borrowed<std::int32_t> b(&ws);
    b->push_back(7);
    EXPECT_EQ(b[0], 7);
    EXPECT_EQ(ws.pooled(), 0u);
  }
  EXPECT_EQ(ws.pooled(), 1u);
}

TEST(Workspace, BorrowedNullWorkspaceFallsBackToLocal) {
  Borrowed<std::int32_t> b(nullptr);
  b->assign(5, 3);
  EXPECT_EQ(b.get().size(), 5u);
  EXPECT_EQ(b[4], 3);
  // Destruction must not touch any pool — just let the local vector die.
}

TEST(Workspace, ReuseAcrossLevelLoopsUnderParanoidValidation) {
  // Two multilevel runs through one arena, with every paranoid validator
  // on: stale scratch contents leaking between levels (or between runs)
  // would either trip a validator or change the result.
  const Hypergraph h = random_hypergraph(300, 600, 6, 3, 11);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.epsilon = 0.1;
  cfg.check_level = check::CheckLevel::kParanoid;

  const Partition baseline = direct_kway_partition(h, cfg, nullptr);

  Workspace ws;
  const Partition first = direct_kway_partition(h, cfg, &ws);
  const std::uint64_t allocations_first = ws.stats().allocations;
  EXPECT_GT(ws.stats().reuses, 0u);  // levels share scratch within a run

  const Partition second = direct_kway_partition(h, cfg, &ws);
  // The second run draws nearly everything from the pool. (A handful of
  // fresh allocations is legal — e.g. a vector that grew on a path not
  // taken before — but the steady state must dominate.)
  EXPECT_LT(ws.stats().allocations - allocations_first,
            allocations_first / 2 + 1);

  EXPECT_EQ(baseline.assignment, first.assignment);
  EXPECT_EQ(baseline.assignment, second.assignment);
  EXPECT_EQ(connectivity_cut(h, baseline), connectivity_cut(h, first));
}

TEST(Workspace, ForThreadZeroIsTheArenaItself) {
  Workspace ws;
  EXPECT_EQ(&ws.for_thread(0), &ws);
  // No pool attached by default.
  EXPECT_EQ(ws.pool(), nullptr);
}

TEST(Workspace, ReserveThreadsCreatesStableSubArenas) {
  Workspace ws;
  ws.reserve_threads(3);
  Workspace& t1 = ws.for_thread(1);
  Workspace& t2 = ws.for_thread(2);
  EXPECT_NE(&t1, &ws);
  EXPECT_NE(&t2, &ws);
  EXPECT_NE(&t1, &t2);
  // Idempotent and growing-only: re-reserving keeps the same sub-arenas
  // (and the capacity they pooled).
  t1.give(std::vector<int>(64));
  ws.reserve_threads(3);
  ws.reserve_threads(2);
  EXPECT_EQ(&ws.for_thread(1), &t1);
  EXPECT_EQ(t1.pooled(), 1u);
  // Sub-arena pools are independent of the parent's.
  EXPECT_EQ(ws.pooled(), 0u);
  std::vector<int> v = t1.take<int>();
  EXPECT_GE(v.capacity(), 64u);
  EXPECT_EQ(t1.stats().reuses, 1u);
}

TEST(Workspace, SubArenasReuseAcrossParallelSections) {
  // Two parallel sections through the same arena: the second section's
  // takes must be served from capacity pooled by the first, per thread.
  ThreadPool pool(2);
  Workspace ws;
  ws.set_pool(&pool);
  EXPECT_EQ(ws.pool(), &pool);
  ws.reserve_threads(pool.num_threads());
  for (int section = 0; section < 2; ++section) {
    pool.run([&](int t) {
      Workspace& tws = ws.for_thread(t);
      std::vector<std::int32_t> scratch = tws.take<std::int32_t>();
      scratch.resize(1000);
      tws.give(std::move(scratch));
    });
  }
  EXPECT_EQ(ws.stats().takes, 2u);
  EXPECT_EQ(ws.stats().reuses, 1u);
  EXPECT_EQ(ws.for_thread(1).stats().takes, 2u);
  EXPECT_EQ(ws.for_thread(1).stats().reuses, 1u);
}

TEST(Workspace, ThreadedPartitionReuseUnderParanoidValidation) {
  // The thread-parallel twin of ReuseAcrossLevelLoopsUnderParanoidValidation:
  // two multilevel runs through one arena carrying a two-thread pool, every
  // paranoid validator on. Stale per-thread scratch leaking between rounds
  // or runs would trip a validator or change the result — and the result
  // must be bit-identical to the serial, arena-free baseline.
  const Hypergraph h = random_hypergraph(300, 600, 6, 3, 11);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.epsilon = 0.1;
  cfg.check_level = check::CheckLevel::kParanoid;

  const Partition baseline = direct_kway_partition(h, cfg, nullptr);

  ThreadPool pool(2);
  Workspace ws;
  ws.set_pool(&pool);
  const Partition first = direct_kway_partition(h, cfg, &ws);
  const std::uint64_t allocations_first = ws.stats().allocations;
  const Partition second = direct_kway_partition(h, cfg, &ws);
  EXPECT_LT(ws.stats().allocations - allocations_first,
            allocations_first / 2 + 1);

  EXPECT_EQ(baseline.assignment, first.assignment);
  EXPECT_EQ(baseline.assignment, second.assignment);
}

TEST(Workspace, ReuseAcrossVcyclesUnderParanoidValidation) {
  const Hypergraph h = random_hypergraph(200, 400, 5, 3, 23);
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.epsilon = 0.2;  // loose: this test is about scratch reuse, not quality
  cfg.check_level = check::CheckLevel::kParanoid;
  // One arena threaded through two multilevel V-cycles — two direct k-way
  // runs (odd k; every level's coarsening and k-way refinement). Paranoid
  // validators confirm no cross-level contamination, and the second run
  // must be identical.
  Workspace ws;
  const Partition a = direct_kway_partition(h, cfg, &ws);
  const Partition b = direct_kway_partition(h, cfg, &ws);
  EXPECT_EQ(a.assignment, b.assignment);
}

}  // namespace
}  // namespace hgr
