#include "partition/matching_ipm.hpp"

#include <cstdint>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace hgr {
namespace {

/// Rounds are capped defensively; real inputs converge in far fewer
/// (expected O(log n) thanks to the per-round hash tie-break).
constexpr Index kMaxRounds = 64;
/// A round can make zero matches yet not be terminal: the next salt
/// reshuffles tie-broken preferences. Give up after this many in a row.
constexpr int kStaleRounds = 4;

}  // namespace

// Mutual-proposal matching, the thread-parallel replacement for the old
// sequential greedy pass. Each round: (1) every unmatched vertex scores
// its unmatched neighbors (cost-weighted shared nets) and proposes to the
// best feasible one; (2) pairs that proposed to each other become
// matched. Both phases are chunked over vertices; phase 1 reads only
// round-start `match` and writes prop[v] for v in its own chunk, phase 2
// reads only `prop` and writes the two match cells of a mutual pair from
// the chunk owning its smaller endpoint — each cell has exactly one
// writer, so the rounds are race-free AND their output is a pure function
// of the round-start state. That makes the result bit-identical for every
// thread count (the ThreadDeterminism suite holds this to 1/2/4 threads).
//
// Ties (equal score, equal weight) are broken by a per-round salted hash
// of the candidate id before the id itself: with plain lowest-id
// preference, symmetric neighborhoods (paths, grids) funnel every
// proposal onto the same few vertices and the rounds crawl; the hash
// decorrelates preferences so a constant fraction of proposals pair up
// per round. The salt is drawn serially from `rng` once per round, so the
// random stream is consumed identically at every thread count.
IdVector<VertexId, VertexId> ipm_matching(const Hypergraph& h,
                                          Weight max_vertex_weight, Rng& rng,
                                          Workspace* ws) {
  const Index n = h.num_vertices();
  IdVector<VertexId, VertexId> match(n);
  for (const VertexId v : h.vertices()) match[v] = v;

  ThreadPool* pool = ws != nullptr ? ws->pool() : nullptr;
  const int num_threads = pool_threads(pool);
  if (ws != nullptr) ws->reserve_threads(num_threads);

  // Sparse score accumulators, one slice of `n` per thread: score[u] is
  // valid iff u is in that thread's `touched` list, and every slice is
  // restored to all-zero before its vertex iteration ends. The flat
  // T x n buffer comes from the caller's arena; the touched lists come
  // from each thread's own sub-arena inside the parallel sections.
  Borrowed<Weight> score_b(ws);
  score_b.get().assign(
      static_cast<std::size_t>(num_threads) * static_cast<std::size_t>(n), 0);

  // prop[v]: the partner v proposes to this round (invalid = sits out).
  Borrowed<VertexId> prop_b(ws);
  prop_b.get().assign(static_cast<std::size_t>(n), kInvalidVertex);
  IdSpan<VertexId, VertexId> prop(std::span<VertexId>(prop_b.get()));

  std::vector<std::uint64_t> proposals_of(
      static_cast<std::size_t>(num_threads), 0);
  std::vector<std::uint64_t> matched_of(static_cast<std::size_t>(num_threads),
                                        0);

  Index rounds = 0;
  int stale = 0;
  std::uint64_t total_proposals = 0;
  while (rounds < kMaxRounds && stale < kStaleRounds) {
    ++rounds;
    const std::uint64_t salt = rng();
    for (int t = 0; t < num_threads; ++t) {
      proposals_of[static_cast<std::size_t>(t)] = 0;
      matched_of[static_cast<std::size_t>(t)] = 0;
    }

    // Phase 1: proposals. Reads match (round-start state), writes prop
    // cells owned by the chunk.
    parallel_chunks(pool, n, [&](int t, Index begin, Index end) {
      IdSpan<VertexId, Weight> score(
          score_b.get().data() +
              static_cast<std::size_t>(t) * static_cast<std::size_t>(n),
          static_cast<std::size_t>(n));
      Workspace* tws = ws != nullptr ? &ws->for_thread(t) : nullptr;
      Borrowed<VertexId> touched_b(tws);
      std::vector<VertexId>& touched = touched_b.get();
      std::uint64_t proposed = 0;

      for (Index vi = begin; vi < end; ++vi) {
        const VertexId v{vi};
        prop[v] = kInvalidVertex;
        if (match[v] != v) continue;  // already matched
        if (h.vertex_degree(v) > kMaxMatchingDegree) continue;
        const PartId fv = h.fixed_part(v);
        const Weight wv = h.vertex_weight(v);

        accumulate_ipm_scores(
            h, v, [&](VertexId u) { return match[u] == u; }, score, touched);

        // Selection: highest inner product among feasible partners; ties
        // prefer the lighter partner (balances coarse weights), then the
        // smaller salted hash, then the smaller id (total order).
        VertexId best = kInvalidVertex;
        Weight best_score = 0;
        Weight best_weight = 0;
        std::uint64_t best_hash = 0;
        for (const VertexId u : touched) {
          const Weight s = score[u];
          score[u] = 0;  // reset for the next vertex
          // A partner above the degree cap could never reciprocate (it
          // sits out phase 1), so proposing to it is wasted.
          if (h.vertex_degree(u) > kMaxMatchingDegree) continue;
          if (!fixed_compatible(fv, h.fixed_part(u))) continue;
          if (max_vertex_weight > 0 &&
              wv + h.vertex_weight(u) > max_vertex_weight)
            continue;
          const Weight wu = h.vertex_weight(u);
          const std::uint64_t hu =
              derive_seed(salt, static_cast<std::uint64_t>(u.v));
          const bool better =
              s > best_score ||
              (s == best_score &&
               (best == kInvalidVertex || wu < best_weight ||
                (wu == best_weight &&
                 (hu < best_hash || (hu == best_hash && u < best)))));
          if (better) {
            best = u;
            best_score = s;
            best_weight = wu;
            best_hash = hu;
          }
        }
        prop[v] = best;
        if (best != kInvalidVertex) ++proposed;
      }
      proposals_of[static_cast<std::size_t>(t)] = proposed;
    });

    // Phase 2: acceptance. A mutual pair (prop[v] == u, prop[u] == v) is
    // committed by the chunk owning the smaller endpoint — the unique
    // writer of both match cells.
    parallel_chunks(pool, n, [&](int t, Index begin, Index end) {
      std::uint64_t made = 0;
      for (Index vi = begin; vi < end; ++vi) {
        const VertexId v{vi};
        const VertexId u = prop[v];
        if (u == kInvalidVertex || v > u) continue;
        if (prop[u] != v) continue;
        match[v] = u;
        match[u] = v;
        ++made;
      }
      matched_of[static_cast<std::size_t>(t)] = made;
    });

    std::uint64_t round_proposals = 0;
    std::uint64_t round_matched = 0;
    for (int t = 0; t < num_threads; ++t) {
      round_proposals += proposals_of[static_cast<std::size_t>(t)];
      round_matched += matched_of[static_cast<std::size_t>(t)];
    }
    total_proposals += round_proposals;
    // No proposals at all is terminal: feasibility does not depend on the
    // salt, so no future round can differ. No *matches* is not — the next
    // salt reshuffles the tie-broken preferences.
    if (round_proposals == 0) break;
    stale = round_matched == 0 ? stale + 1 : 0;
  }

  static obs::CachedCounter rounds_counter("coarsen.ipm_rounds");
  static obs::CachedCounter proposals_counter("coarsen.ipm_proposals");
  rounds_counter += static_cast<std::uint64_t>(rounds);
  proposals_counter += total_proposals;

  // Postcondition: match is an involution and respects fixed compatibility.
#ifndef NDEBUG
  for (const VertexId v : h.vertices()) {
    const VertexId u = match[v];
    HGR_ASSERT(match[u] == v);
    if (u != v)
      HGR_ASSERT(fixed_compatible(h.fixed_part(v), h.fixed_part(u)));
  }
#endif
  return match;
}

}  // namespace hgr
