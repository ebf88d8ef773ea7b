// Contraction: build the coarse hypergraph induced by a matching.
//
// Matched pairs merge into one coarse vertex (weights and sizes summed,
// fixed parts merged per §4.1). Net pin lists are mapped and deduplicated;
// nets reduced to fewer than 2 pins vanish (they can no longer be cut) and
// nets with identical pin sets are merged with summed costs — both standard
// multilevel-partitioning reductions that keep coarse levels small.
//
// Fine and coarse vertex ids are distinct *values* of the same VertexId
// type; the fine_to_coarse map is the only sanctioned bridge between the
// two levels (keyed by fine id, storing coarse ids).
#pragma once

#include <span>
#include <vector>

#include "common/workspace.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hgr {

struct CoarseLevel {
  Hypergraph coarse;
  IdVector<VertexId, VertexId> fine_to_coarse;  // one entry per fine vertex
};

/// `ws` (optional) pools the per-net mapping scratch and the identical-net
/// table across levels and supplies the ThreadPool the pin-list
/// construction and the dedup walk run on (serial when absent). The coarse
/// hypergraph is bit-identical at every thread count.
CoarseLevel contract(const Hypergraph& h,
                     IdSpan<VertexId, const VertexId> match,
                     Workspace* ws = nullptr);

}  // namespace hgr
