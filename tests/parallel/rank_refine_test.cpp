// Rank-parallel refinement (paper §4.3): kway_refine driven through a
// RankSplit, every rank proposing for its own vertex block and applying the
// gathered, gain-sorted move list. Covers rank agreement, fixed vertices,
// the ceil-aware balance bound, the memory guard, parity with the
// rank-parallel refiner this engine replaced, and bit-identity with the
// serial engine at every ranks x threads split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "obs/trace.hpp"
#include "parallel/par_partitioner.hpp"
#include "partition/kway_refine.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::fnv1a;
using testing::random_hypergraph;
using testing::random_partition;

struct RankRun {
  std::vector<Partition> parts;  // rank order
  std::vector<KwayRefineResult> stats;
};

/// Refines `start` on `ranks` ranks, each with a `threads`-thread pool.
RankRun refine_at_ranks(const Hypergraph& h, const Partition& start,
                        const PartitionConfig& cfg, int ranks,
                        int threads = 1) {
  RankRun run;
  run.parts.resize(static_cast<std::size_t>(ranks));
  run.stats.resize(static_cast<std::size_t>(ranks));
  Comm comm(ranks);
  comm.run([&](RankContext& ctx) {
    Workspace ws;
    std::optional<ThreadPool> pool;
    if (threads > 1) {
      pool.emplace(threads);
      ws.set_pool(&*pool);
    }
    Partition p = start;
    const RankSplit split = rank_split(ctx, h.num_vertices());
    const KwayRefineResult r =
        kway_refine(h, p, cfg, cfg.max_refine_passes, &ws, &split);
    const auto i = static_cast<std::size_t>(ctx.rank());
    run.parts[i] = std::move(p);
    run.stats[i] = r;
  });
  return run;
}

void expect_ranks_agree(const RankRun& run) {
  for (std::size_t i = 1; i < run.parts.size(); ++i) {
    EXPECT_EQ(run.parts[i].assignment, run.parts[0].assignment);
    EXPECT_EQ(run.stats[i].final_cut, run.stats[0].final_cut);
    EXPECT_EQ(run.stats[i].moves, run.stats[0].moves);
    EXPECT_EQ(run.stats[i].passes, run.stats[0].passes);
  }
}

TEST(ParRefine, NeverWorsensCutAndRanksAgree) {
  const Hypergraph h = random_hypergraph(80, 160, 5, 3, 3);
  const Partition start = random_partition(80, 4, 7);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.epsilon = 0.5;  // random start is unbalanced; allow generous cap
  const RankRun run = refine_at_ranks(h, start, cfg, 3);
  expect_ranks_agree(run);
  EXPECT_LE(run.stats[0].final_cut, run.stats[0].initial_cut);
  EXPECT_EQ(run.stats[0].final_cut, connectivity_cut(h, run.parts[0]));
}

TEST(ParRefine, RespectsFixedVertices) {
  Hypergraph h = random_hypergraph(60, 120, 4, 2, 5);
  std::vector<PartId> fixed(60, kNoPart);
  fixed[0] = PartId{2};
  fixed[5] = PartId{1};
  h.set_fixed_parts(fixed);
  Partition start = random_partition(60, 3, 9);
  start[VertexId{0}] = PartId{2};
  start[VertexId{5}] = PartId{1};
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.epsilon = 0.5;
  const RankRun run = refine_at_ranks(h, start, cfg, 2);
  expect_ranks_agree(run);
  EXPECT_GT(run.stats[0].moves, 0);
  EXPECT_EQ(run.parts[0][VertexId{0}], PartId{2});
  EXPECT_EQ(run.parts[0][VertexId{5}], PartId{1});
}

// Regression: the truncated balance bound (floor of avg*(1+eps)) rejected
// moves into parts that Eq. 1 admits whenever the average weight is
// fractional; the ceil-aware bound accepts them.
TEST(ParRefine, AcceptsMoveUpToCeilOfFractionalAverage) {
  HypergraphBuilder b(3);
  b.add_net({0, 2});
  b.set_vertex_weight(0, 3);
  b.set_vertex_weight(1, 3);
  b.set_vertex_weight(2, 1);
  const Hypergraph h = b.finalize();
  Partition start(2, 3);
  start[VertexId{0}] = PartId{0};
  start[VertexId{1}] = PartId{0};
  start[VertexId{2}] = PartId{1};
  PartitionConfig cfg;
  cfg.num_parts = 2;
  cfg.epsilon = 0.05;
  const RankRun run = refine_at_ranks(h, start, cfg, 2);
  expect_ranks_agree(run);
  // v0 (weight 3) must join part 1 (reaching 4 = ceil(7/2)) to clear the
  // cut net; the old truncated bound capped part 1 at 3 and kept cut = 1.
  EXPECT_GE(run.stats[0].moves, 1);
  EXPECT_EQ(run.stats[0].final_cut, 0);
  EXPECT_EQ(connectivity_cut(h, run.parts[0]), 0);
}

// The incrementally maintained cut must equal a from-scratch recount on
// dense nets, where the same destination part is reached through many pins;
// paranoid checks also cross-check the whole gain cache on every rank.
TEST(ParRefine, FinalCutMatchesRecomputeOnDenseNets) {
  // Few large nets: every vertex sees every part through each net.
  Rng net_rng(31);
  HypergraphBuilder b(40);
  for (int net = 0; net < 12; ++net) {
    std::vector<Index> pins;
    for (Index v = 0; v < 40; ++v)
      if (net_rng.below(4) != 0) pins.push_back(v);  // ~30 pins per net
    b.add_net(pins, 1 + static_cast<Weight>(net_rng.below(3)));
  }
  const Hypergraph h = b.finalize();
  const Partition start = random_partition(40, 4, 17);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.epsilon = 0.5;
  // GainCache::validate runs on every rank inside the refiner.
  cfg.check_level = check::CheckLevel::kParanoid;
  const RankRun run = refine_at_ranks(h, start, cfg, 3);
  expect_ranks_agree(run);
  for (std::size_t i = 0; i < run.parts.size(); ++i) {
    EXPECT_EQ(run.stats[i].final_cut, connectivity_cut(h, run.parts[i]));
    EXPECT_LE(run.stats[i].final_cut, run.stats[i].initial_cut);
  }
}

TEST(ParRefine, RespectsBalanceCap) {
  const Hypergraph h = random_hypergraph(90, 180, 4, 2, 11);
  // Balanced round-robin start.
  Partition start(3, 90);
  for (Index v = 0; v < 90; ++v) start[VertexId{v}] = PartId{v % 3};
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.epsilon = 0.2;
  const RankRun run = refine_at_ranks(h, start, cfg, 4);
  expect_ranks_agree(run);
  // Moves only enter parts that stay within the bound, so no part ends
  // above both the bound and its starting weight.
  const Weight cap = max_part_weight(h.total_vertex_weight(), 3, cfg.epsilon);
  const IdVector<PartId, Weight> before =
      part_weights(h.vertex_weights(), start);
  const IdVector<PartId, Weight> after =
      part_weights(h.vertex_weights(), run.parts[0]);
  for (const PartId q : start.parts())
    EXPECT_LE(after[q], std::max(cap, before[q]));
}

TEST(ParRefine, OversizedTableSkipIsCounted) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  // 262145 nets x k=1024 = 2^28 + 1024 crosses the guard.
  HypergraphBuilder b(2);
  for (Index i = 0; i < 262145; ++i) b.add_net({0, 1}, 1);
  const Hypergraph h = b.finalize();
  PartitionConfig cfg;
  cfg.num_parts = 1024;
  Partition start(1024, 2);
  start[VertexId{0}] = PartId{0};
  start[VertexId{1}] = PartId{1};
  const Weight before = connectivity_cut(h, start);

  const RankRun run = refine_at_ranks(h, start, cfg, 2);
  // One skip, counted once (by the lead rank); both ranks skipped, so no
  // pass ran anywhere and no collective was left unmatched.
  EXPECT_EQ(reg.counter_value("kway.skipped_table_too_large"), 1u);
  EXPECT_EQ(reg.counter_value("kway.passes"), 0u);
  ASSERT_EQ(run.parts.size(), 2u);
  for (std::size_t i = 0; i < run.parts.size(); ++i) {
    EXPECT_EQ(run.parts[i].assignment, start.assignment);
    EXPECT_EQ(run.stats[i].passes, 0);
    EXPECT_EQ(run.stats[i].moves, 0);
    EXPECT_EQ(run.stats[i].initial_cut, before);
    EXPECT_EQ(run.stats[i].final_cut, before);
  }
}

// Replicated quantities are counted once, per-rank work is summed: the
// ranks' proposals partition the serial engine's, so their sum matches it.
TEST(ParRefine, CountersSumProposalsAndCountReplicatedOnce) {
  const Hypergraph h = random_hypergraph(150, 300, 5, 3, 13);
  const Partition start = random_partition(150, 4, 3);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.epsilon = 0.3;

  obs::Registry serial_reg;
  KwayRefineResult serial;
  {
    obs::ScopedRegistry scope(serial_reg);
    Partition p = start;
    serial = kway_refine(h, p, cfg, cfg.max_refine_passes);
  }
  obs::Registry rank_reg;
  RankRun run;
  {
    obs::ScopedRegistry scope(rank_reg);
    run = refine_at_ranks(h, start, cfg, 3);
  }
  ASSERT_GT(serial.moves, 0);
  for (const char* name : {"kway.passes", "kway.moves", "kway.proposals"})
    EXPECT_EQ(rank_reg.counter_value(name), serial_reg.counter_value(name))
        << name;
  EXPECT_EQ(rank_reg.counter_value("kway.passes"),
            static_cast<std::uint64_t>(run.stats[0].passes));
  EXPECT_EQ(rank_reg.counter_value("kway.moves"),
            static_cast<std::uint64_t>(run.stats[0].moves));
}

// Random instance with zero-cost nets, single-pin nets and (when
// fixed_every > 0) every fixed_every-th vertex fixed to part v % k.
Hypergraph mixed_hypergraph(Index n, Index nets, Index k, Index fixed_every,
                            std::uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder b(n);
  b.keep_single_pin_nets(true);
  for (Index i = 0; i < nets; ++i) {
    const auto size = static_cast<Index>(1 + rng.below(6));
    std::vector<Index> pins;
    for (Index j = 0; j < size; ++j)
      pins.push_back(
          static_cast<Index>(rng.below(static_cast<std::uint64_t>(n))));
    const Weight cost =
        rng.below(5) == 0 ? 0 : 1 + static_cast<Weight>(rng.below(3));
    b.add_net(pins, cost);
  }
  for (Index v = 0; v < n; ++v) {
    b.set_vertex_weight(v, 1 + static_cast<Weight>(rng.below(3)));
    if (fixed_every > 0 && v % fixed_every == 0)
      b.set_fixed_part(v, PartId{v % k});
  }
  return b.finalize();
}

/// Random start that already honours the fixed vertices.
Partition fixed_respecting_start(const Hypergraph& h, Index k,
                                 std::uint64_t seed) {
  Partition p = random_partition(h.num_vertices(), k, seed);
  for (const VertexId v : h.vertices())
    if (h.fixed_part(v) != kNoPart) p[v] = h.fixed_part(v);
  return p;
}

struct Instance {
  Hypergraph h;
  Partition start;
  PartitionConfig cfg;
};

/// The fixed (h, start, cfg) instances of the parity test.
Instance parity_instance(int i) {
  PartitionConfig cfg;
  switch (i) {
    case 0: {
      cfg.num_parts = 4;
      cfg.epsilon = 0.3;
      return {random_hypergraph(120, 240, 5, 3, 101),
              random_partition(120, 4, 1), cfg};
    }
    case 1: {
      cfg.num_parts = 8;
      cfg.epsilon = 0.1;
      return {random_hypergraph(200, 300, 8, 4, 102),
              random_partition(200, 8, 2), cfg};
    }
    case 2: {
      // Fractional average (odd total weight over k = 3), tight epsilon.
      cfg.num_parts = 3;
      cfg.epsilon = 0.05;
      Partition s(3, 97);
      for (Index v = 0; v < 97; ++v) s[VertexId{v}] = PartId{v % 3};
      return {random_hypergraph(97, 200, 4, 2, 103), std::move(s), cfg};
    }
    case 3: {
      cfg.num_parts = 4;
      cfg.epsilon = 0.3;
      Hypergraph h = mixed_hypergraph(150, 260, 4, 6, 104);
      Partition s = fixed_respecting_start(h, 4, 3);
      return {std::move(h), std::move(s), cfg};
    }
    case 4: {
      cfg.num_parts = 5;
      cfg.epsilon = 0.2;
      Hypergraph h = mixed_hypergraph(180, 400, 5, 9, 105);
      Partition s = fixed_respecting_start(h, 5, 4);
      return {std::move(h), std::move(s), cfg};
    }
    default: {
      cfg.num_parts = 6;
      cfg.epsilon = 0.5;
      cfg.max_refine_passes = 20;  // runs to a pass that applies nothing
      return {mixed_hypergraph(90, 150, 6, 0, 106),
              random_partition(90, 6, 5), cfg};
    }
  }
}

// Parity with the rank-parallel refiner this engine replaced: its output
// on each instance, at 2 and 3 ranks, was hashed before it was deleted.
// The engine proposes by the same rule and applies in the same total
// order, so it reproduces every hash.
TEST(ParRefine, ReproducesRecordedRankRefinerHashes) {
  struct Recorded {
    int instance;
    int ranks;
    std::uint64_t hash;
    Weight initial_cut;
    Weight final_cut;
    Index moves;
    Index passes;
  };
  constexpr Recorded kRecorded[] = {
      {0, 2, 0x9388d1b8ac4ee507ull, 763, 436, 68, 4},
      {0, 3, 0x9388d1b8ac4ee507ull, 763, 436, 68, 4},
      {1, 2, 0x42e60f42f19f4f06ull, 2006, 1417, 108, 4},
      {1, 3, 0x42e60f42f19f4f06ull, 2006, 1417, 108, 4},
      {2, 2, 0x5892018b035ac9a5ull, 310, 226, 30, 4},
      {2, 3, 0x5892018b035ac9a5ull, 310, 226, 30, 4},
      {3, 2, 0x1e0842b7b2079785ull, 537, 330, 50, 4},
      {3, 3, 0x1e0842b7b2079785ull, 537, 330, 50, 4},
      {4, 2, 0x6ffd91529f0242d5ull, 1010, 711, 76, 4},
      {4, 3, 0x6ffd91529f0242d5ull, 1010, 711, 76, 4},
      {5, 2, 0xc982df19519f3027ull, 370, 193, 51, 5},
      {5, 3, 0xc982df19519f3027ull, 370, 193, 51, 5},
  };
  for (const Recorded& want : kRecorded) {
    SCOPED_TRACE(::testing::Message() << "instance " << want.instance << " at "
                                    << want.ranks << " ranks");
    const Instance in = parity_instance(want.instance);
    const RankRun run = refine_at_ranks(in.h, in.start, in.cfg, want.ranks);
    expect_ranks_agree(run);
    EXPECT_EQ(fnv1a(run.parts[0]), want.hash);
    EXPECT_EQ(run.stats[0].initial_cut, want.initial_cut);
    EXPECT_EQ(run.stats[0].final_cut, want.final_cut);
    EXPECT_EQ(run.stats[0].moves, want.moves);
    EXPECT_EQ(run.stats[0].passes, want.passes);
  }
}

// Differential: ranks {1, 2, 3} x threads {1, 2, 4} all equal the serial
// engine bit for bit, on instances with fixed vertices, zero-cost nets and
// single-pin nets.
TEST(ParRefine, RankAndThreadSplitsMatchSerialEngine) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Index k = 3 + static_cast<Index>(seed);
    const Hypergraph h =
        mixed_hypergraph(160, 320, k, 4 + static_cast<Index>(seed), seed);
    const Partition start = fixed_respecting_start(h, k, seed + 10);
    PartitionConfig cfg;
    cfg.num_parts = k;
    cfg.epsilon = 0.25;
    cfg.max_refine_passes = 8;
    Partition serial_p = start;
    const KwayRefineResult serial =
        kway_refine(h, serial_p, cfg, cfg.max_refine_passes);
    ASSERT_GT(serial.moves, 0);
    for (const int ranks : {1, 2, 3}) {
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << ", " << ranks
                                        << " ranks x " << threads
                                        << " threads");
        const RankRun run = refine_at_ranks(h, start, cfg, ranks, threads);
        expect_ranks_agree(run);
        EXPECT_EQ(run.parts[0].assignment, serial_p.assignment);
        EXPECT_EQ(run.stats[0].final_cut, serial.final_cut);
        EXPECT_EQ(run.stats[0].moves, serial.moves);
        EXPECT_EQ(run.stats[0].passes, serial.passes);
      }
    }
  }
}

}  // namespace
}  // namespace hgr
