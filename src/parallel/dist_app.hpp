// Distributed-application engine: the consumer side of load balancing.
//
// Zoltan is a *data management service*: applications ask it where data
// should live, then it migrates the data and the application communicates
// along the new distribution. This module reproduces that loop over the
// in-process runtime:
//
//   - payloads: each vertex owns a data blob of exactly vertex_size(v)
//     words, held by the rank that owns the vertex's part;
//   - halo_exchange(): one iteration's communication under the hypergraph
//     model — for every net, each non-root part ships the net's partial
//     reduction (c_n words) to the net's root part. The bytes the runtime
//     counts equal  sizeof(word) * sum_j c_j (lambda_j - 1): the
//     connectivity-1 cut *is* the measured traffic, which is the premise
//     the whole paper builds on (Section 2) and what dist_app tests
//     verify;
//   - migrate(): executes a MigrationPlan, moving payload blobs between
//     ranks; counted bytes match the plan's total volume.
//
// Parts map to ranks via owner(part) = part % num_ranks; with
// num_ranks == k every part is a rank, as in the paper's experiments.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/migration_plan.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"
#include "parallel/comm.hpp"

namespace hgr {

/// Per-rank payload store: vertex -> data words. A vertex's blob has
/// exactly vertex_size(v) words; word 0 conventionally tags the vertex id
/// (tests use this to detect corruption in flight).
using PayloadStore = std::unordered_map<Index, std::vector<std::int64_t>>;

/// Owner rank of a part: owner(part) = part mod num_ranks. Returns the
/// strong RankId; use .v only at the comm boundary (FlatBuffer slots).
inline RankId part_owner(PartId part, int num_ranks) {
  return RankId{part.v % num_ranks};
}

/// Build this rank's initial payload store: one blob per owned vertex,
/// word 0 = vertex id, the rest deterministic filler.
PayloadStore make_payloads(const RankContext& ctx, const Hypergraph& h,
                           const Partition& p);

struct HaloStats {
  /// Words shipped (= sum of c_j over (net, non-root part) pairs).
  Weight words_sent = 0;
  /// Global checksum of net reductions (identical on all ranks).
  std::int64_t reduction_checksum = 0;
};

/// One iteration's communication phase. `values` is the replicated
/// per-vertex scalar the nets reduce over (any application quantity).
/// Must be called congruently by all ranks. Cost per call: one O(pins)
/// scan of the nets on every rank, then O(cut) frame building and
/// checking — only cut nets build per-part partials. Each root rank
/// asserts that it received exactly the frames the replicated partition
/// predicts, well-formed and carrying the right partials, so ranks that
/// disagree about `p` (or a lost or duplicated frame) fail loudly.
HaloStats halo_exchange(RankContext& ctx, const Hypergraph& h,
                        const Partition& p,
                        const std::vector<std::int64_t>& values);

struct MigrateStats {
  Weight words_moved = 0;   // == plan.total_volume when executed fully
  Index blobs_sent = 0;
  Index blobs_received = 0;
};

/// Execute the plan: every moved vertex's blob leaves the old part's owner
/// and lands at the new part's owner. Store is updated in place.
MigrateStats migrate(RankContext& ctx, const MigrationPlan& plan,
                     const Hypergraph& h, PayloadStore& store);

/// Abort unless `store` holds exactly the blobs of the vertices whose part
/// p maps to this rank, each intact (word 0 == vertex id, correct length).
void validate_payloads(const RankContext& ctx, const Hypergraph& h,
                       const Partition& p, const PayloadStore& store);

}  // namespace hgr
