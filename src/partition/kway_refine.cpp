#include "partition/kway_refine.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "obs/trace.hpp"
#include "partition/gain_cache.hpp"

namespace hgr {

// Each pass runs four steps, so every thread and rank count walks
// byte-identical state:
//
//   Propose (parallel over the caller's vertex block): against the frozen
//   pass-start cache, each movable vertex proposes its best strictly
//   positive-gain destination within the balance bound. Candidates ascend
//   and only a strictly better gain replaces the incumbent, so ties go to
//   the lowest part id. Read-only on shared state; each thread writes
//   only its own chunk's slots.
//
//   Gather: nothing serially; at ranks, one allgatherv of every rank's
//   list (RankSplit::gather).
//
//   Sort by (gain descending, vertex ascending). Every vertex proposes at
//   most once, so this is a total order and the input order — thread
//   chunks, rank blocks — cannot leak into the result.
//
//   Apply (serial, sorted order): re-check each move's gain and the
//   balance bound against the *live* cache and apply it if both still
//   hold. Moves that sour once earlier moves land are dropped; vertices
//   that only become attractive mid-pass are picked up by the next pass.
KwayRefineResult kway_refine(const Hypergraph& h, Partition& p,
                             const PartitionConfig& cfg, Index max_passes,
                             Workspace* ws, const RankSplit* ranks) {
  KwayRefineResult result;
  const Index k = p.k;
  const Index n = h.num_vertices();
  // Replicated quantities are counted once: by the lead rank.
  const bool lead = ranks == nullptr || ranks->lead;
  // Memory guard (gain_cache.hpp): counted and noted, never silent. It
  // reads only the replicated (h, k), so every rank skips together and no
  // collective is left unmatched.
  static obs::CachedCounter skipped("kway.skipped_table_too_large");
  if (k <= 1 || n == 0 ||
      gain_table_too_large(h, k, "kway_refine", lead ? &skipped : nullptr)) {
    result.initial_cut = connectivity_cut(h, p);
    result.final_cut = result.initial_cut;
    return result;
  }

  GainCache cache(h, p, ws);
  result.initial_cut = cache.cut();
  const Weight max_pw =
      max_part_weight(h.total_vertex_weight(), k, cfg.epsilon);
  const Index lo = ranks != nullptr ? ranks->begin : 0;
  const Index hi = ranks != nullptr ? ranks->end : n;

  ThreadPool* pool = ws != nullptr ? ws->pool() : nullptr;
  const int num_threads = pool_threads(pool);
  if (ws != nullptr) ws->reserve_threads(num_threads);
  Borrowed<MoveProposal> proposals_b(ws);
  std::vector<MoveProposal>& proposals = proposals_b.get();
  // Thread t writes its proposals to the front of its own chunk's slots,
  // [kept[t].first, kept[t].second); the chunks are compacted afterwards.
  std::vector<std::pair<Index, Index>> kept(
      static_cast<std::size_t>(num_threads));
  std::uint64_t total_proposals = 0;

  // Accepted-move gain distribution (every accepted move has positive
  // gain, so this histogram's p50 vs max shows how front-loaded the pass
  // is). Batched locally, folded into the registry once per pass.
  static obs::CachedHistogram gain_hist("kway.move_gain");
  obs::HistogramSnapshot gain_batch;

  for (Index pass = 0; pass < max_passes; ++pass) {
    ++result.passes;

    // Propose: read-only against the pass-start cache.
    proposals.resize(static_cast<std::size_t>(hi - lo));
    std::fill(kept.begin(), kept.end(), std::pair<Index, Index>{0, 0});
    parallel_chunks(pool, hi - lo, [&](int t, Index begin, Index end) {
      Workspace* t_ws = ws != nullptr ? &ws->for_thread(t) : nullptr;
      Borrowed<PartId> candidates(t_ws);
      Borrowed<std::uint64_t> words(t_ws);
      Index out = begin;
      for (Index vi = lo + begin; vi < lo + end; ++vi) {
        const VertexId v{vi};
        if (h.fixed_part(v) != kNoPart) continue;
        cache.candidate_parts_into(*candidates, v, *words);
        PartId best = kNoPart;
        Weight best_gain = 0;
        for (const PartId q : *candidates) {
          if (cache.part_weight(q) + h.vertex_weight(v) > max_pw) continue;
          const Weight g = cache.move_gain(v, q);
          if (g > best_gain) {
            best = q;
            best_gain = g;
          }
        }
        if (best != kNoPart)
          proposals[static_cast<std::size_t>(out++)] = {vi, best, best_gain};
      }
      kept[static_cast<std::size_t>(t)] = {begin, out};
    });
    std::size_t found = 0;
    for (const auto& [begin, end] : kept)
      for (Index i = begin; i < end; ++i)
        proposals[found++] = proposals[static_cast<std::size_t>(i)];
    proposals.resize(found);
    total_proposals += found;

    if (ranks != nullptr) ranks->gather(proposals);
    std::sort(proposals.begin(), proposals.end(),
              [](const MoveProposal& a, const MoveProposal& b) {
                if (a.gain != b.gain) return a.gain > b.gain;
                return a.vertex < b.vertex;
              });

    // Apply: serial, sorted order, against the live cache.
    Index applied = 0;
    for (const MoveProposal& m : proposals) {
      // hgr-lint: raw-ok (MoveProposal is the rank gather's wire struct)
      const VertexId v = from_raw<VertexId>(m.vertex);
      const Weight gain = cache.move_gain(v, m.to);
      if (gain <= 0) continue;  // soured since the proposal snapshot
      if (cache.part_weight(m.to) + h.vertex_weight(v) > max_pw) continue;
      if (lead) gain_batch.record(gain);
      cache.apply_move(v, m.to);
      p[v] = m.to;
      ++applied;
    }
    if (gain_batch.count > 0) {
      gain_hist.get().merge(gain_batch);
      gain_batch = obs::HistogramSnapshot{};
    }
    result.moves += applied;
    if (ranks != nullptr) ranks->check_lockstep(applied);
    if (applied == 0) break;
  }
  static obs::CachedCounter passes_counter("kway.passes");
  static obs::CachedCounter moves_counter("kway.moves");
  static obs::CachedCounter proposals_counter("kway.proposals");
  if (lead) {
    passes_counter += static_cast<std::uint64_t>(result.passes);
    moves_counter += static_cast<std::uint64_t>(result.moves);
  }
  proposals_counter += total_proposals;
  result.final_cut = cache.cut();
  cache.validate(cfg.check_level);
  HGR_DASSERT(result.final_cut == connectivity_cut(h, p));
  return result;
}

}  // namespace hgr
