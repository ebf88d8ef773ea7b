#include "parallel/par_ipm.hpp"

#include <gtest/gtest.h>

#include <mutex>

#include "parallel/par_coarsen.hpp"
#include "parallel/par_partitioner.hpp"
#include "partition/matching_ipm.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::random_hypergraph;

TEST(BlockDistribution, RangesPartitionTheIndexSpace) {
  for (const Index n : {1, 7, 100, 101}) {
    for (const int size : {1, 2, 3, 8}) {
      Index covered = 0;
      for (int r = 0; r < size; ++r) {
        const auto [lo, hi] = block_range(n, size, r);
        EXPECT_LE(lo, hi);
        covered += hi - lo;
        for (Index v = lo; v < hi; ++v)
          EXPECT_EQ(block_owner(v, n, size), r)
              << "v=" << v << " n=" << n << " p=" << size;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ParallelIpm, AllRanksAgreeAndInvolution) {
  const Hypergraph h = random_hypergraph(80, 160, 5, 3, 3);
  Comm comm(4);
  std::mutex m;
  std::vector<IdVector<VertexId, VertexId>> results;
  comm.run([&](RankContext& ctx) {
    const auto match = parallel_ipm_matching(ctx, h, 0, 99);
    std::lock_guard lock(m);
    results.push_back(match);
  });
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t r = 1; r < results.size(); ++r)
    EXPECT_EQ(results[r], results[0]);
  for (const VertexId v : h.vertices())
    EXPECT_EQ(results[0][results[0][v]], v);
}

TEST(ParallelIpm, RespectsFixedCompatibility) {
  Hypergraph h = random_hypergraph(60, 120, 4, 2, 5);
  std::vector<PartId> fixed(60, kNoPart);
  Rng frng(1);
  for (auto& f : fixed) f = PartId{static_cast<Index>(frng.below(3))};
  h.set_fixed_parts(fixed);
  Comm comm(3);
  std::mutex m;
  IdVector<VertexId, VertexId> match;
  comm.run([&](RankContext& ctx) {
    auto result = parallel_ipm_matching(ctx, h, 0, 7);
    if (ctx.rank() == 0) {
      std::lock_guard lock(m);
      match = std::move(result);
    }
  });
  for (const VertexId v : h.vertices()) {
    const VertexId u = match[v];
    if (u != v) {
      EXPECT_TRUE(fixed_compatible(h.fixed_part(v), h.fixed_part(u)));
    }
  }
}

TEST(ParallelIpm, MatchesAcrossRankBoundaries) {
  // A chain: most partners live on a different rank than their vertex.
  HypergraphBuilder b(40);
  for (Index v = 0; v + 1 < 40; ++v) b.add_net({v, v + 1});
  const Hypergraph h = b.finalize();
  Comm comm(4);
  std::mutex m;
  IdVector<VertexId, VertexId> match;
  comm.run([&](RankContext& ctx) {
    auto result = parallel_ipm_matching(ctx, h, 0, 13);
    if (ctx.rank() == 0) {
      std::lock_guard lock(m);
      match = std::move(result);
    }
  });
  Index cross_rank = 0;
  Index matched = 0;
  for (const VertexId v : h.vertices()) {
    const VertexId u = match[v];
    if (u == v) continue;
    ++matched;
    if (block_owner(v.v, 40, 4) != block_owner(u.v, 40, 4)) ++cross_rank;
  }
  EXPECT_GT(matched, 20);
  EXPECT_GT(cross_rank, 0);  // boundary pairs really do match
}

TEST(ParallelContract, ChecksumAgreesAcrossRanks) {
  const Hypergraph h = random_hypergraph(50, 100, 4, 2, 9);
  Comm comm(3);
  std::mutex m;
  Index coarse_n = -1;
  comm.run([&](RankContext& ctx) {
    const auto match = parallel_ipm_matching(ctx, h, 0, 3);
    const CoarseLevel level = parallel_contract(ctx, h, match);
    if (ctx.rank() == 0) {
      std::lock_guard lock(m);
      coarse_n = level.coarse.num_vertices();
    }
  });
  EXPECT_GT(coarse_n, 0);
  EXPECT_LT(coarse_n, 50);
}

TEST(LocalIpm, RanksAgreeInvolutionAndBlockLocality) {
  const Hypergraph h = random_hypergraph(80, 160, 5, 3, 13);
  Comm comm(4);
  std::mutex m;
  std::vector<IdVector<VertexId, VertexId>> results;
  comm.run([&](RankContext& ctx) {
    const auto match = local_ipm_matching(ctx, h, 0, 55);
    std::lock_guard lock(m);
    results.push_back(match);
  });
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t r = 1; r < results.size(); ++r)
    EXPECT_EQ(results[r], results[0]);
  Index matched = 0;
  for (const VertexId v : h.vertices()) {
    const VertexId u = results[0][v];
    EXPECT_EQ(results[0][u], v);
    if (u != v) {
      ++matched;
      // Local matching never crosses rank blocks.
      EXPECT_EQ(block_owner(v.v, 80, 4), block_owner(u.v, 80, 4));
    }
  }
  EXPECT_GT(matched, 10);
}

TEST(LocalIpm, RespectsFixedCompatibility) {
  Hypergraph h = random_hypergraph(60, 120, 4, 2, 15);
  std::vector<PartId> fixed(60, kNoPart);
  Rng frng(2);
  for (auto& f : fixed) f = PartId{static_cast<Index>(frng.below(3))};
  h.set_fixed_parts(fixed);
  Comm comm(3);
  std::mutex m;
  IdVector<VertexId, VertexId> match;
  comm.run([&](RankContext& ctx) {
    auto result = local_ipm_matching(ctx, h, 0, 8);
    if (ctx.rank() == 0) {
      std::lock_guard lock(m);
      match = std::move(result);
    }
  });
  for (const VertexId v : h.vertices()) {
    const VertexId u = match[v];
    if (u != v) {
      EXPECT_TRUE(fixed_compatible(h.fixed_part(v), h.fixed_part(u)));
    }
  }
}

TEST(LocalIpm, PartitionerWorksWithLocalMatching) {
  const Hypergraph h = random_hypergraph(120, 240, 4, 2, 17);
  ParallelPartitionConfig cfg;
  cfg.num_ranks = 3;
  cfg.base.num_parts = 4;
  cfg.local_matching = true;
  const ParallelPartitionResult r = parallel_partition_hypergraph(h, cfg);
  r.partition.validate();
}

TEST(LocalIpm, LessTrafficThanGlobal) {
  const Hypergraph h = random_hypergraph(150, 300, 5, 3, 19);
  ParallelPartitionConfig cfg;
  cfg.num_ranks = 4;
  cfg.base.num_parts = 4;
  cfg.local_matching = false;
  const auto global = parallel_partition_hypergraph(h, cfg);
  cfg.local_matching = true;
  const auto local = parallel_partition_hypergraph(h, cfg);
  EXPECT_LT(local.traffic.bytes_sent, global.traffic.bytes_sent);
}

TEST(ParallelIpm, SingleRankMatchesLikeSerialRounds) {
  const Hypergraph h = random_hypergraph(40, 80, 4, 2, 11);
  Comm comm(1);
  comm.run([&](RankContext& ctx) {
    const auto match = parallel_ipm_matching(ctx, h, 0, 21);
    Index matched = 0;
    for (const VertexId v : h.vertices())
      if (match[v] != v) ++matched;
    EXPECT_GT(matched, 10);
  });
}

}  // namespace
}  // namespace hgr
