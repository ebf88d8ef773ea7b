// Fiduccia-Mattheyses bisection refinement with fixed vertices.
//
// Paper §4.3: "a localized version of the successful Fiduccia-Mattheyses
// method ... performs multiple pass-pairs and in each pass, each vertex is
// considered to move to another part to reduce cut cost. ... We do not
// allow fixed vertices to be moved out of their fixed partition."
//
// This is the serial kernel; the pass structure is classic FM with
// rollback to the best prefix, a move-limit early cutoff, and a balance
// model that (a) prefers feasible states and (b) can repair an infeasible
// projected partition by forced moves off the overweight side.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/workspace.hpp"
#include "hypergraph/hypergraph.hpp"
#include "partition/config.hpp"
#include "partition/initial.hpp"

namespace hgr {

struct FmResult {
  Weight initial_cut = 0;
  Weight final_cut = 0;
  Index passes = 0;
};

/// Refine `side` (0/1 per vertex) in place. Fixed vertices (h.fixed_part in
/// {0,1}) never move. Returns pass statistics. `ws` (optional) pools the
/// gain-cache and queue scratch across bisection levels. At
/// CheckLevel::kParanoid every pass cross-checks its queue keys and the
/// gain cache against from-scratch recomputation.
FmResult fm_refine_bisection(const Hypergraph& h,
                             IdVector<VertexId, PartId>& side,
                             const BisectionTargets& targets,
                             const PartitionConfig& cfg, Rng& rng,
                             Workspace* ws = nullptr);

}  // namespace hgr
