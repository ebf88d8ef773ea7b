#include "parallel/par_partitioner.hpp"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "check/validate.hpp"
#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/workspace.hpp"
#include "core/repartition_model.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "parallel/par_coarsen.hpp"
#include "parallel/par_initial.hpp"
#include "parallel/par_ipm.hpp"
#include "partition/coarsen_rule.hpp"
#include "partition/partitioner.hpp"  // record_coarsen_level

namespace hgr {

RankSplit rank_split(RankContext& ctx, Index num_vertices) {
  RankSplit split;
  std::tie(split.begin, split.end) =
      block_range(num_vertices, ctx.size(), ctx.rank());
  split.gather = [&ctx](std::vector<MoveProposal>& proposals) {
    const FlatBuffer<MoveProposal> all = ctx.allgatherv<MoveProposal>(
        {proposals.data(), proposals.size()});
    proposals.assign(all.all().begin(), all.all().end());
  };
  split.check_lockstep = [&ctx](Index applied) {
    // Every rank applied the identical global move list, so the sum over
    // ranks is `applied` times the rank count.
    const auto applied_anywhere = ctx.allreduce_sum<std::int64_t>(applied);
    HGR_ASSERT(applied_anywhere ==
               static_cast<std::int64_t>(applied) * ctx.size());
  };
  split.lead = ctx.rank() == 0;
  return split;
}

ParallelPartitionResult parallel_partition_hypergraph(
    const Hypergraph& h, const ParallelPartitionConfig& cfg) {
  HGR_ASSERT(cfg.num_ranks >= 1);
  HGR_ASSERT(cfg.base.num_parts >= 1);
  h.validate(cfg.base.num_parts);

  ParallelPartitionResult result;
  result.partition =
      Partition(cfg.base.num_parts, h.num_vertices(), PartId{0});
  if (cfg.base.num_parts == 1 || h.num_vertices() == 0) return result;

  WallTimer timer;
  Comm comm(cfg.num_ranks);
  comm.set_deadlock_timeout(cfg.deadlock_timeout);
  comm.set_fault_plan(cfg.base.fault_plan);
  std::mutex out_mutex;
  // Epoch span for critical-path attribution: allocated by the lead rank,
  // propagated to the others through the comm exchange window (a plain
  // broadcast), closed after the join once every rank's records are in.
  std::atomic<std::uint64_t> epoch_span{0};

  comm.run([&](RankContext& ctx) {
    // Every rank opens the phase scopes: same-named scopes merge into one
    // node with calls == p, seconds == sum over ranks (cpu-seconds), and
    // max_seconds as the representative per-rank wall time — max-min is
    // the skew the per-rank timeline (events.hpp) drills into.
    const bool lead = ctx.rank() == 0;
    obs::TraceScope run_scope("par_partition");

    const std::vector<std::uint64_t> span_buf = ctx.bcast(
        std::vector<std::uint64_t>{lead ? obs::begin_epoch_span() : 0}, 0);
    const std::uint64_t span = span_buf.empty() ? 0 : span_buf[0];
    if (lead) epoch_span.store(span, std::memory_order_relaxed);
    // Blocked time already accrued by this rank; per-phase deltas below
    // separate "computing" from "waiting on a peer" per span phase.
    const auto blocked_seconds = [&ctx] {
      const CommStats& s = ctx.stats();
      return s.recv_wait_seconds + s.barrier_wait_seconds;
    };

    // Rank-local scratch arena: each rank's kernels (contraction, the
    // serial partitioner behind the coarse step) reuse capacity across
    // levels. Never shared across ranks; thread-parallel kernels inside
    // this rank use per-thread sub-arenas of it. When cfg asks for
    // shared-memory threads, the arena carries this rank's own pool —
    // ranks x threads compose (docs/PARALLELISM.md).
    Workspace ws;
    std::optional<ThreadPool> thread_pool;
    if (cfg.base.num_threads > 1) {
      thread_pool.emplace(static_cast<int>(cfg.base.num_threads));
      ws.set_pool(&*thread_pool);
    }

    const CoarseningRule rule(h.total_vertex_weight(),
                              2 * cfg.base.num_parts);

    // Coarsening: every rank holds the (replicated) current level; the
    // matching itself is computed cooperatively and is identical on all
    // ranks, so contraction is too (parallel_contract asserts it).
    std::vector<CoarseLevel> levels;
    const Hypergraph* current = &h;
    {
      obs::TraceScope coarsen_scope("coarsen");
      WallTimer phase_timer;
      const double wait_before = blocked_seconds();
      for (Index level = 0; rule.continues(level, current->num_vertices());
           ++level) {
        const std::uint64_t level_seed =
            derive_seed(cfg.base.seed, static_cast<std::uint64_t>(level));
        const IdVector<VertexId, VertexId> match =
            cfg.local_matching
                ? local_ipm_matching(ctx, *current, rule.max_vertex_weight,
                                     level_seed)
                : parallel_ipm_matching(ctx, *current,
                                        rule.max_vertex_weight, level_seed);
        CoarseLevel next = parallel_contract(ctx, *current, match, &ws);
        if (CoarseningRule::stalled(current->num_vertices(),
                                    next.coarse.num_vertices()))
          break;
        // Only the lead rank validates: the level is replicated and
        // parallel_contract already checksums cross-rank agreement.
        if (lead) {
          record_coarsen_level(current->num_vertices(),
                               next.coarse.num_vertices(), match);
          check::validate_coarsening(*current, next, cfg.base.check_level);
        }
        levels.push_back(std::move(next));
        current = &levels.back().coarse;
      }
      obs::record_rank_phase(span, ctx.rank(), "coarsen",
                             phase_timer.seconds(),
                             blocked_seconds() - wait_before);
    }

    // Coarse partitioning: every rank tries its own seed; best wins.
    Partition p(cfg.base.num_parts, current->num_vertices());
    {
      obs::TraceScope initial_scope("initial");
      WallTimer phase_timer;
      const double wait_before = blocked_seconds();
      p = parallel_coarse_partition(ctx, *current, cfg.base,
                                    derive_seed(cfg.base.seed, 5000), &ws);
      obs::record_rank_phase(span, ctx.rank(), "initial",
                             phase_timer.seconds(),
                             blocked_seconds() - wait_before);
    }

    // Uncoarsening with synchronized localized refinement (paper §4.3):
    // the one k-way engine, each rank proposing for its own vertex block
    // (split further over its pool) and every rank applying the gathered
    // list, so all ranks end each pass with identical partitions.
    {
      obs::TraceScope refine_scope("refine");
      WallTimer phase_timer;
      const double wait_before = blocked_seconds();
      const auto refine = [&](const Hypergraph& level_h) {
        const RankSplit split = rank_split(ctx, level_h.num_vertices());
        kway_refine(level_h, p, cfg.base, cfg.base.max_refine_passes, &ws,
                    &split);
      };
      refine(*current);
      for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
        const Hypergraph& finer =
            (std::next(it) == levels.rend()) ? h : std::next(it)->coarse;
        if (lead)
          check::validate_coarsening(finer, *it, cfg.base.check_level, &p);
        Partition fine_p(cfg.base.num_parts, finer.num_vertices());
        for (const VertexId v : finer.vertices())
          fine_p[v] = p[it->fine_to_coarse[v]];
        p = std::move(fine_p);
        refine(finer);
      }
      obs::record_rank_phase(span, ctx.rank(), "refine",
                             phase_timer.seconds(),
                             blocked_seconds() - wait_before);
    }

    if (lead) {
      obs::counter("par_partition.levels") +=
          static_cast<std::uint64_t>(levels.size());
      std::lock_guard lock(out_mutex);
      result.partition = std::move(p);
      result.levels = static_cast<Index>(levels.size());
    }
  });

  // All ranks have joined: close the span and publish the attribution.
  if (const std::uint64_t span = epoch_span.load(std::memory_order_relaxed);
      span != 0)
    obs::end_epoch_span(span);

  result.seconds = timer.seconds();
  result.traffic = comm.total_stats();

  result.partition.validate();
  if (h.has_fixed()) {
    for (const VertexId v : h.vertices()) {
      const PartId f = h.fixed_part(v);
      HGR_ASSERT_MSG(f == kNoPart || result.partition[v] == f,
                     "parallel partitioner violated a fixed constraint");
    }
  }
  {
    check::PartitionExpectations expect;
    expect.epsilon = cfg.base.epsilon;
    expect.context = "par_partition";
    check::validate_partition(h, result.partition, cfg.base.check_level,
                              expect);
  }
  return result;
}

ParallelPartitionResult parallel_hypergraph_repartition(
    const Hypergraph& h, const Partition& old_p, Weight alpha,
    const ParallelPartitionConfig& cfg) {
  HGR_ASSERT(old_p.k == cfg.base.num_parts);
  WallTimer timer;
  const RepartitionModel model = build_repartition_model(h, old_p, alpha);
  ParallelPartitionResult augmented =
      parallel_partition_hypergraph(model.augmented, cfg);
  ParallelPartitionResult result;
  result.partition = decode_augmented_partition(model, augmented.partition);
  result.traffic = augmented.traffic;
  result.levels = augmented.levels;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace hgr
