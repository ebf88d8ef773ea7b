#include "parallel/par_ipm.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/assert.hpp"
#include "partition/matching_ipm.hpp"

namespace hgr {

namespace {

/// Wire format of a match proposal: (candidate, partner, score, rank).
/// Raw vertex ids on purpose — this struct crosses the allgatherv boundary.
struct Proposal {
  Index candidate;
  Index partner;
  Weight score;
  std::int32_t rank;
};

/// Wire format of a committed local match (raw ids, like Proposal).
struct MatchedPair {
  Index v;
  Index u;
};

/// The rank matchers' partner predicate: score only this rank's own
/// block [lo, hi), only vertices still unmatched, and, as in the serial
/// matcher, no vertex above the degree cap.
auto own_unmatched(const Hypergraph& h,
                   const IdVector<VertexId, VertexId>& match, Index lo,
                   Index hi) {
  return [&h, &match, lo, hi](VertexId u) {
    return u.v >= lo && u.v < hi && match[u] == u &&
           h.vertex_degree(u) <= kMaxMatchingDegree;
  };
}

/// The rank matchers' selection among v's scored partners (zeroing every
/// touched score): highest score among fixed-compatible partners within
/// the weight cap, then the lighter partner, then the lower id. Returns
/// {kInvalidVertex, 0} when no partner qualifies.
std::pair<VertexId, Weight> select_partner(
    const Hypergraph& h, VertexId v, Weight max_vertex_weight,
    IdSpan<VertexId, Weight> score, const std::vector<VertexId>& touched) {
  const PartId fv = h.fixed_part(v);
  const Weight wv = h.vertex_weight(v);
  VertexId best = kInvalidVertex;
  Weight best_score = 0;
  Weight best_weight = 0;
  for (const VertexId u : touched) {
    const Weight s = score[u];
    score[u] = 0;
    if (!fixed_compatible(fv, h.fixed_part(u))) continue;
    const Weight wu = h.vertex_weight(u);
    if (max_vertex_weight > 0 && wv + wu > max_vertex_weight) continue;
    if (best == kInvalidVertex || s > best_score ||
        (s == best_score &&
         (wu < best_weight || (wu == best_weight && u < best)))) {
      best = u;
      best_score = s;
      best_weight = wu;
    }
  }
  return {best, best_score};
}

}  // namespace

IdVector<VertexId, VertexId> parallel_ipm_matching(RankContext& ctx,
                                                   const Hypergraph& h,
                                                   Weight max_vertex_weight,
                                                   std::uint64_t seed) {
  const Index n = h.num_vertices();
  IdVector<VertexId, VertexId> match(n);
  for (const VertexId v : h.vertices()) match[v] = v;

  const auto [lo, hi] = block_range(n, ctx.size(), ctx.rank());
  Rng rng(derive_seed(seed, static_cast<std::uint64_t>(ctx.rank())));
  const auto eligible = own_unmatched(h, match, lo, hi);

  // Local unmatched vertices in random visit order.
  std::vector<VertexId> local;
  for (Index v = lo; v < hi; ++v) local.push_back(VertexId{v});
  rng.shuffle(local);
  std::size_t cursor = 0;

  const int rounds = 4;
  IdVector<VertexId, Weight> score(n, 0);
  std::vector<VertexId> touched;

  for (int round = 0; round < rounds; ++round) {
    // Select this round's candidates from the still-unmatched local
    // vertices (an even share per round, the leftovers in the last round).
    std::vector<VertexId> candidates;
    const std::size_t budget =
        round + 1 == rounds
            ? local.size()
            : (local.size() + rounds - 1) / static_cast<std::size_t>(rounds);
    while (cursor < local.size() && candidates.size() < budget) {
      const VertexId v = local[cursor++];
      if (match[v] == v && h.vertex_degree(v) <= kMaxMatchingDegree)
        candidates.push_back(v);
    }

    // Broadcast candidates to every rank (rank boundaries are irrelevant
    // here, so the contiguous payload is consumed directly).
    const FlatBuffer<VertexId> all_candidates =
        ctx.allgatherv<VertexId>({candidates.data(), candidates.size()});

    // Score every foreign and local candidate against *our* unmatched
    // vertices; emit our best proposal per candidate.
    std::vector<Proposal> proposals;
    for (const VertexId c : all_candidates.all()) {
      if (match[c] != c) continue;
      accumulate_ipm_scores(h, c, eligible, score, touched);
      const auto [best, best_score] =
          select_partner(h, c, max_vertex_weight, score, touched);
      if (best != kInvalidVertex)
        proposals.push_back({to_raw(c), to_raw(best), best_score,
                             static_cast<std::int32_t>(ctx.rank())});
    }

    // Gather all proposals; every rank finalizes identically: candidates
    // in ascending id order, each taking its globally best still-valid
    // partner. The gathered payload is already one contiguous array, so it
    // is sorted in place — no flatten pass.
    FlatBuffer<Proposal> all_proposals =
        ctx.allgatherv<Proposal>({proposals.data(), proposals.size()});
    const std::span<Proposal> flat = all_proposals.all();
    std::sort(flat.begin(), flat.end(), [](const Proposal& a,
                                           const Proposal& b) {
      if (a.candidate != b.candidate) return a.candidate < b.candidate;
      if (a.score != b.score) return a.score > b.score;
      if (a.rank != b.rank) return a.rank < b.rank;
      return a.partner < b.partner;
    });
    for (std::size_t i = 0; i < flat.size();) {
      const Index raw_c = flat[i].candidate;
      const VertexId c = from_raw<VertexId>(raw_c);
      if (match[c] == c) {
        for (std::size_t j = i; j < flat.size() && flat[j].candidate == raw_c;
             ++j) {
          const VertexId u = from_raw<VertexId>(flat[j].partner);
          if (u != c && match[u] == u) {
            match[c] = u;
            match[u] = c;
            break;
          }
        }
      }
      while (i < flat.size() && flat[i].candidate == raw_c) ++i;
    }
  }

#ifndef NDEBUG
  for (const VertexId v : match.ids()) HGR_ASSERT(match[match[v]] == v);
#endif
  return match;
}

IdVector<VertexId, VertexId> local_ipm_matching(RankContext& ctx,
                                                const Hypergraph& h,
                                                Weight max_vertex_weight,
                                                std::uint64_t seed) {
  const Index n = h.num_vertices();
  IdVector<VertexId, VertexId> match(n);
  for (const VertexId v : h.vertices()) match[v] = v;

  const auto [lo, hi] = block_range(n, ctx.size(), ctx.rank());
  Rng rng(derive_seed(seed, 31 + static_cast<std::uint64_t>(ctx.rank())));
  const auto eligible = own_unmatched(h, match, lo, hi);

  // Serial first-choice IPM restricted to the local vertex block: both the
  // initiating vertex and its partner are owned here.
  IdVector<VertexId, Weight> score(n, 0);
  std::vector<VertexId> touched;
  std::vector<VertexId> order;
  for (Index v = lo; v < hi; ++v) order.push_back(VertexId{v});
  rng.shuffle(order);

  std::vector<MatchedPair> pairs;
  for (const VertexId v : order) {
    if (match[v] != v) continue;
    if (h.vertex_degree(v) > kMaxMatchingDegree) continue;
    accumulate_ipm_scores(h, v, eligible, score, touched);
    const VertexId best =
        select_partner(h, v, max_vertex_weight, score, touched).first;
    if (best != kInvalidVertex) {
      match[v] = best;
      match[best] = v;
      pairs.push_back({to_raw(v), to_raw(best)});
    }
  }

  // One exchange replicates every rank's decisions; blocks are disjoint so
  // no conflicts are possible.
  const FlatBuffer<MatchedPair> all_pairs =
      ctx.allgatherv<MatchedPair>({pairs.data(), pairs.size()});
  for (const MatchedPair& pair : all_pairs.all()) {
    const VertexId v = from_raw<VertexId>(pair.v);
    const VertexId u = from_raw<VertexId>(pair.u);
    match[v] = u;
    match[u] = v;
  }

#ifndef NDEBUG
  for (const VertexId v : match.ids()) HGR_ASSERT(match[match[v]] == v);
#endif
  return match;
}

}  // namespace hgr
